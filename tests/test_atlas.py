"""Identity atlas: one row per identity the lab implements, each naming the statement of the
survey (Klainerman-Selberg, arXiv math/0101118) that it checks."""

import math

import numpy as np
import pytest

from nflab.lattice import SPACETIME, SPATIAL, FrequencyPoint, SpectralField, make_grid
from nflab.nullform import BilinearFormSpec, apply_form, kernel_value

TWO_PI = 2.0 * math.pi
KERNEL_FORMS = ([(form, SPACETIME) for form in ("q0", "qij", "product", "ralpha", "splus",
                                                  "sminus")]
                + [(form, SPATIAL) for form in ("product", "splus", "sminus")])


@pytest.mark.parametrize("periods", [(TWO_PI, TWO_PI), (1.3, 2.9)])
@pytest.mark.parametrize("form, kind", KERNEL_FORMS)
def test_each_form_with_a_pointwise_kernel_is_that_kernel_on_single_modes(form, kind, periods):
    # The survey's null forms act by their symbols, Q_0 by tau lam - xi.eta and Q_12 by
    # xi_2 eta_1 - xi_1 eta_2, and its operators R^alpha, S^alpha_+- by the kernels
    # Delta_+-^alpha: B(e_p, e_q) = kernel(p, q) e_{p+q} / sqrt(volume).  p ranges over the
    # whole band, Nyquist planes included, and q over the modes that keep p + q in the band.
    g = make_grid(2, 16, 16, *periods)
    spec = BilinearFormSpec(form, alpha=0.7)
    shape = g.shape_for(kind)
    spacetime = kind == SPACETIME
    volume = g.volume if spacetime else g.spatial_volume
    rng = np.random.default_rng(34)
    for _ in range(20):
        p = rng.integers(-8, 8, size=len(shape))
        q = rng.integers(np.maximum(-8, -8 - p), np.minimum(8, 8 - p))
        u, v = (SpectralField(grid=g, kind=kind, coeffs=np.zeros(shape, dtype=complex))
                for _ in range(2))
        u.coeffs[tuple(p)] = v.coeffs[tuple(q)] = 1.0
        want = np.zeros(shape, dtype=complex)
        want[tuple(p + q)] = kernel_value(spec, *(
            FrequencyPoint(k[0] * TWO_PI / g.T_per if spacetime else 0.0,
                           k[-2:] * TWO_PI / g.L_per) for k in (p, q)))
        got = apply_form(spec, u, v).coeffs * math.sqrt(volume)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), (p, q)
