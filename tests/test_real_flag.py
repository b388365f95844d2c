"""`real_flag` as an invariant: a field a function returns flagged real is Hermitian,
coeffs(-Xi) = conj coeffs(Xi), to rounding, on inputs that fill every mode (the tau = 0
plane, every Nyquist plane and the zero mode; `conftest.full_band_field`).

The rows that break it are ROADMAP item 2's cause (c), each a strict xfail, so that a fix
flips it and must remove the mark.  Hypothesis does not shrink: a broken row fails on its
first real draw, and shrinking it would cost seconds a row.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import full_band_field
from nflab.lattice import (SPACETIME, SPATIAL, dealiased_product, from_time_spatial_rep,
                           inverse_transform, make_grid, symbol_image, time_cutoff,
                           time_spatial_rep, transform)
from nflab.multiplier import FAMILIES, MultiplierSpec, apply
from nflab.nullform import BilinearFormSpec, apply_form
from nflab.propagate import CauchyData, duhamel, half_wave, homogeneous

CAUSE_C = ("cause 2(c): an odd symbol is not 0 on a Nyquist plane, and a real field's "
           "Nyquist coefficient is split between -N/2 and +N/2 by the real route only")
BOTH, ST, SP = (SPATIAL, SPACETIME), (SPACETIME,), (SPATIAL,)


def _multipliers(u, v):
    # lambda_+/-, d_+/- act on spacetime fields only
    return [apply(MultiplierSpec(family, a, axis=1), u) for family in FAMILIES for a in (0.7, -0.7)
            if u.kind == SPACETIME or not family.endswith(("_plus", "_minus"))]


def _form(form):
    spec = BilinearFormSpec(form, alpha=0.7)
    return lambda u, v: [apply_form(spec, u, v)] if form != "qij" or u.grid.n >= 2 else []


HOLDS = [
    ("transform", BOTH, lambda u, v: [transform(u.grid, inverse_transform(u).real, u.kind)]),
    ("from_time_spatial_rep", ST,
     lambda u, v: [from_time_spatial_rep(u.grid, time_spatial_rep(u), u.real_flag)]),
    ("time_cutoff", ST, lambda u, v: [time_cutoff(u, u.grid.T_per / 2)]),
    ("multiplier.apply", BOTH, _multipliers),
    ("duhamel", ST, lambda u, v: [duhamel(u)]),
    ("homogeneous", SP, lambda u, v: [homogeneous(CauchyData(u, v), 0.0)]),
    ("half_wave", SP, lambda u, v: [half_wave(sign, 0.0, u) for sign in (1, -1)]),
]
BROKEN = [
    ("dealiased_product", BOTH, lambda u, v: [dealiased_product(u, v)]),
    ("symbol_image-d", BOTH, lambda u, v: [symbol_image(u, ("d", mu))
                                           for mu in range(u.kind == SPATIAL, u.grid.n + 1)]),
    *[(f"apply_form-{form}", ST, _form(form))
      for form in ("q0", "qij", "qtilde", "product", "ralpha", "splus", "sminus")],
    *[(f"apply_form-{form}", SP, _form(form)) for form in ("product", "splus", "sminus")],
]
ROWS = [pytest.param(evaluate, kind, id=f"{name}-{kind}",
                     marks=[pytest.mark.xfail(raises=AssertionError, strict=True,
                                               reason=CAUSE_C)] * (rows is BROKEN))
        for rows in (HOLDS, BROKEN) for name, kinds, evaluate in rows for kind in kinds]


@pytest.mark.parametrize("evaluate, kind", ROWS)
@given(n=st.integers(1, 3), shape=st.sampled_from([(4, 4), (4, 8), (8, 4)]),
       which=st.sampled_from(["real", "complex"]), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_a_field_flagged_real_is_hermitian(evaluate, kind, n, shape, which, seed):
    g = make_grid(n, *shape, 1.3, 2.9)
    rng = np.random.default_rng(seed)
    u, v = (full_band_field(rng, g, kind, which) for _ in range(2))
    for out in evaluate(u, v):
        if out.real_flag:
            assert out.hermitian_error() <= 1e-13 * np.max(np.abs(out.coeffs))
