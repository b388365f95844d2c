"""nflab: numerical laboratory for null-form bilinear estimates.

Spectral fields on a periodic space-time lattice, wave-Sobolev norms, the
null-form operators and their frequency kernels, linear wave solvers, Picard
iteration for the model quadratic systems, and a sharpness prober for the
estimate regions.
"""

from .lattice import (Grid, FrequencyPoint, SpectralField, make_grid, transform,
                      inverse_transform, mixed_norm, modified_mixed_norm,
                      modified_mixed_norm_detailed, time_cutoff, dealiased_product,
                      random_field, read_field, write_field)
from .multiplier import (MultiplierSpec, SpaceIndex, apply, ws_norm, cal_norm,
                         is_wave_admissible, strichartz_s, check_thmB, check_thmC)
from .nullform import (BilinearFormSpec, apply_form, kernel_value,
                       check_symbol_inequality, frequency_pairs, INEQUALITY_REGISTRY,
                       delta_plus, delta_minus)
from .propagate import (CauchyData, half_wave, homogeneous, homogeneous_velocity,
                        duhamel, pm_decompose, step1_bound_check)
from .iterate import SystemSpec, IterationTrace, apply_nonlinearity, picard_run, q0_closed_form
from .probe import (EmbeddingSpec, KernelSpec, CounterexampleParams, ProbeReport,
                    probe_embedding, embedding_ratio, schur_bound, trilinear_form,
                    discrete_schur_constant, counterexample_norms, membership_check,
                    membership_draw, first_iterate_kernel, scaling_fit)

__version__ = "0.1.0"
