"""Input guards that the other tests never reach, each checked on the message it promises."""

import math
import re

import numpy as np
import pytest

from nflab import lattice as lat
from nflab import multiplier as mult
from nflab import probe as pr
from nflab import propagate as prop
from nflab.cli import EXIT_CONFIG, main
from nflab.lattice import SPACETIME, SPATIAL, SpectralField, make_grid, random_field

GRID = make_grid(2, 8, 8, 2 * math.pi, 2 * math.pi)
SPATIAL_FIELD = random_field(GRID, SPATIAL, 1)
IDX = mult.SpaceIndex(0.5, 0.6)

SPACETIME_ONLY = [
    ("time_spatial_rep", lat.time_spatial_rep, "mixed representation needs a spacetime field"),
    ("mixed_norm", lambda u: lat.mixed_norm(u, 2, 2), "mixed_norm needs a spacetime field"),
    ("modified_mixed_norm", lambda u: lat.modified_mixed_norm(u, 4, 4),
     "modified mixed norm needs a spacetime field"),
    ("time_cutoff", lambda u: lat.time_cutoff(u, 1.0), "time_cutoff needs a spacetime field"),
    ("ws_norm", lambda u: mult.ws_norm(u, IDX), "ws_norm needs a spacetime field"),
    ("cal_norm", lambda u: mult.cal_norm(u, IDX), "cal_norm needs a spacetime field"),
    ("duhamel", prop.duhamel, "duhamel needs a spacetime field"),
    ("pm_decompose", prop.pm_decompose, "pm_decompose needs a spacetime field"),
    ("step1_bound_check", lambda u: prop.step1_bound_check(u, 1.0),
     "step1_bound_check needs a spacetime field"),
] + [(f"apply {family}", lambda u, f=family: mult.apply(mult.MultiplierSpec(f, alpha=0.5), u),
      f"{family} acts on spacetime fields only")
     for family in ("lambda_plus", "lambda_minus", "d_plus", "d_minus")]


@pytest.mark.parametrize("name, call, message", SPACETIME_ONLY, ids=[r[0] for r in SPACETIME_ONLY])
def test_spacetime_only_operations_reject_a_spatial_field(name, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(SPATIAL_FIELD)


def test_norms_rejects_a_stored_spatial_field(tmp_path, capsys):
    path = tmp_path / "spatial.nflb"
    lat.write_field(SPATIAL_FIELD, path)
    assert main(["norms", "--field", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().out == "ERROR\tcode=2\tmsg=norms needs a spacetime field\n"


def test_a_field_must_fit_its_lattice():
    message = "coefficient shape (8, 8) does not match (8, 8, 8)"
    with pytest.raises(ValueError, match=re.escape(message)):
        SpectralField(GRID, SPACETIME, np.zeros((8, 8), dtype=complex))


def test_samples_must_fit_the_lattice():
    with pytest.raises(ValueError, match=re.escape("sample shape (8, 8, 8) does not match (8, 8)")):
        lat.transform(GRID, np.zeros((8, 8, 8)), SPATIAL)


@pytest.mark.parametrize("q, r, bad", [(0.5, 2, "0.5"), (2, float("nan"), "nan"), (-1, 4, "-1.0")])
def test_lebesgue_exponents_are_at_least_one(q, r, bad):
    u = random_field(GRID, SPACETIME, 2)
    message = f"Lebesgue exponent must be in [1, inf], got {bad}"
    with pytest.raises(ValueError, match=re.escape(message)):
        lat.mixed_norm(u, q, r)


def test_a_config_line_without_equals_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[adm]\nq 4\n")
    assert main(["--config", str(path), "admissible"]) == EXIT_CONFIG
    assert capsys.readouterr().out == f"ERROR\tcode=2\tmsg={path}:2: expected key = value\n"


def test_a_boolean_in_a_config_file_is_true_or_false(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[probe]\nunary = yes\n")
    assert main(["--config", str(path), "probe-embedding"]) == EXIT_CONFIG
    assert capsys.readouterr().out == (
        "ERROR\tcode=2\tmsg=probe.unary = 'yes': must be true or false\n")


def test_an_unknown_multiplier_family_is_rejected():
    with pytest.raises(ValueError, match=re.escape("unknown multiplier family 'nope'")):
        mult.MultiplierSpec("nope")


@pytest.mark.parametrize("argv, message", [
    (["probe-embedding", "--ensemble", "nope", "--trials", "1", "--nt", "8", "--nx", "8"],
     "unknown ensemble 'nope'"),
    (["probe-embedding", "--trials", "0"], "need at least one trial"),
    (["probe-embedding", "--ensemble", "counterexample-family", "--n", "1"],
     "counterexample family needs n >= 2"),
    (["probe-kernel", "--variant", "nope"], "variant must be 'homogeneous' or 'inhomogeneous'"),
], ids=["unknown-ensemble", "zero-trials", "family-n1", "kernel-variant"])
def test_probe_options_the_probes_reject_exit_2(argv, message, capsys):
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().out == f"ERROR\tcode=2\tmsg={message}\n"


def test_a_lattice_ensemble_needs_a_grid():
    spec = pr.EmbeddingSpec(left=IDX, right=IDX, target=IDX, n=2)
    with pytest.raises(ValueError, match="^lattice ensembles need a grid$"):
        pr.probe_embedding(spec, "cone-concentrated", 1, None)


def test_a_first_iterate_kernel_sign_is_plus_or_minus():
    with pytest.raises(ValueError, match=re.escape("sign must be 'plus' or 'minus'")):
        pr.first_iterate_kernel("example1", 1.0, "nope", [1.0, 0.0], [0.0, 1.0])
