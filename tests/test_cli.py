import math

import numpy as np
import pytest

from nflab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, read_config
from nflab.lattice import SPACETIME, make_grid, random_field, write_field


def run(args, capsys=None):
    code = main(args)
    return code


def test_admissible_strichartz_point(capsys):
    assert main(["admissible", "--q", "4", "--r", "4", "--n", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "admissible s=0.5" in out


def test_admissible_rejects_r_infinity(capsys):
    assert main(["admissible", "--q", "2", "--r", "inf", "--n", "2"]) == EXIT_OK
    assert "not-admissible" in capsys.readouterr().out


def test_admissible_with_bilinear_conditions(capsys):
    assert main(["admissible", "--q", "4", "--r", "4", "--n", "3",
                 "--sigma", "0.25", "--s1", "0.375", "--s2", "0.375"]) == EXIT_OK
    assert "bilinear=inside" in capsys.readouterr().out
    # outside the stated (non-sharp) region the verdict is unknown, not false
    assert main(["admissible", "--q", "4", "--r", "4", "--n", "3",
                 "--sigma", "0.25", "--s1", "0.3", "--s2", "0.3"]) == EXIT_OK
    assert "bilinear=unknown" in capsys.readouterr().out


def test_symbol_check_writes_csv_and_passes(tmp_path):
    out = tmp_path / "sym.csv"
    code = main(["symbol-check", "--name", "delta", "--samples", "20000",
                 "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "name,samples,violations,worst_margin,constant"
    assert lines[2].startswith("delta,")
    assert ",0," in lines[2]


def test_symbol_check_unknown_name_is_config_error(capsys):
    assert main(["symbol-check", "--name", "bogus", "--samples", "10"]) == EXIT_CONFIG
    assert "ERROR\tcode=2" in capsys.readouterr().out


def test_norms_deterministic_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["norms", "--n", "2", "--nt", "8", "--nx", "8", "--s", "0.5",
            "--theta", "0.6", "--q", "1", "--r", "2", "--seed", "3"]
    assert main(args + ["--out", str(a)]) in (EXIT_OK, EXIT_NUMERICAL)
    assert main(args + ["--out", str(b)]) in (EXIT_OK, EXIT_NUMERICAL)
    assert a.read_bytes() == b.read_bytes()


def test_norms_reads_serialized_field(tmp_path):
    g = make_grid(2, 8, 8, 2 * math.pi, 2 * math.pi)
    f = random_field(g, SPACETIME, 9)
    path = tmp_path / "field.nflb"
    write_field(f, path)
    out = tmp_path / "norms.csv"
    code = main(["norms", "--field", str(path), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    text = out.read_text()
    assert text.startswith("# config:")
    assert "mixed,modified_lower" in text


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
[adm]
q = 4
r = 4
n = 3
""")
    assert main(["--config", str(cfg), "admissible"]) == EXIT_OK
    assert "admissible s=0.5" in capsys.readouterr().out
    # CLI flag overrides the file value
    assert main(["--config", str(cfg), "admissible", "--r", "inf"]) == EXIT_OK
    assert "not-admissible" in capsys.readouterr().out


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[adm]\nq = 4\nmystery = 1\n")
    assert main(["--config", str(cfg), "admissible"]) == EXIT_CONFIG
    assert "ERROR\tcode=2" in capsys.readouterr().out


def test_read_config_parses_sections_and_values(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n[grid]\nn = 2\nT_per = 6.5\n[probe]\nensemble = \"cone-concentrated\"\n")
    conf = read_config(str(cfg))
    assert conf == {"grid.n": 2, "grid.T_per": 6.5,
                    "probe.ensemble": "cone-concentrated"}


def test_iterate_zero_data_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["iterate", "--system", "scalarQ0", "--J", "3", "--n", "2",
                 "--nt", "16", "--nx", "16", "--t-per", "1.0",
                 "--data-scale", "0.0", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "j,sup_Hs,d_j,ratio_j,flag"
    assert lines[2] == "0,0.0,,,"


def test_iterate_divergence_exit_code(tmp_path):
    out = tmp_path / "div.csv"
    code = main(["iterate", "--system", "scalarQ0", "--J", "3", "--n", "2",
                 "--nt", "16", "--nx", "16", "--t-per", "1.0",
                 "--data-scale", "30000.0", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "diverged" in out.read_text()


def test_probe_kernel_ladder(tmp_path):
    out = tmp_path / "kernel.csv"
    code = main(["probe-kernel", "--a", "1.2", "--b", "0.5", "--c", "0.0",
                 "--variant", "homogeneous", "--n", "3", "--R", "4",
                 "--h", "0.2", "--halvings", "1", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "R,h,value"
    assert "# region=inside" in lines
    assert len(lines) == 6  # header, schema, h-ladder (2) + R-doubling (1), region


def test_probe_kernel_outside_region_tagged(tmp_path):
    out = tmp_path / "kernel_out.csv"
    code = main(["probe-kernel", "--a", "0.0", "--b", "0.0", "--c", "0.6",
                 "--variant", "homogeneous", "--n", "3", "--R", "2",
                 "--h", "0.2", "--halvings", "0", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "# region=outside" in text and "# tag=unproven-direction" in text


def test_thread_cap_keeps_output_deterministic(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
            "--L", "8,16,32"]
    monkeypatch.setenv("NFLAB_THREADS", "1")
    assert main(args + ["--out", str(a)]) == EXIT_OK
    monkeypatch.setenv("NFLAB_THREADS", "3")
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_counterexample_csv_and_plot(tmp_path):
    out = tmp_path / "ce.csv"
    code = main(["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
                 "--L", "8,16,32", "--membership-samples", "1000",
                 "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "L,norm_u,norm_v,lhs_lower,ratio,measure_A,measure_C" in text
    assert "slope_u=" in text and "membership_failures=0" in text
    plot = (str(out) + ".plot")
    with open(plot) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config:")
    assert len(lines) == 4


def test_probe_embedding_family_csv(tmp_path):
    out = tmp_path / "probe.csv"
    code = main(["probe-embedding", "--ensemble", "counterexample-family",
                 "--n", "2", "--left-s", "0.5", "--left-theta", "0.1",
                 "--right-s", "-0.5", "--right-theta", "0.6",
                 "--target-s", "-0.5", "--target-theta", "-0.4",
                 "--scales", "4,6,8", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "probe_id,param_json,scale,value,slope,residual,verdict"
    assert len(lines) == 5


def test_probe_embedding_unary_mixed_target(tmp_path):
    # linear Strichartz-type probe: H^{s,theta} into the mixed-norm surrogate
    out = tmp_path / "unary.csv"
    code = main(["probe-embedding", "--ensemble", "cone-concentrated",
                 "--trials", "10", "--n", "2", "--nt", "16", "--nx", "16",
                 "--unary", "--left-s", "0.0", "--left-theta", "0.6",
                 "--target-q", "inf", "--target-r", "2", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "probe.unary=True" in text
    assert "bounded-consistent" in text or "inconclusive" in text


def test_probe_embedding_mixed_target_needs_both_exponents(capsys):
    assert main(["probe-embedding", "--ensemble", "cone-concentrated",
                 "--trials", "2", "--n", "2", "--nt", "8", "--nx", "8",
                 "--target-q", "2"]) == EXIT_CONFIG
    assert "ERROR\tcode=2" in capsys.readouterr().out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "selftest" in out and "FAIL" not in out


def test_counterexample_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
            "--L", "8,16", "--seed", "5"]
    # two-point scaling data cannot be slope-fitted; use three
    args = ["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
            "--L", "8,16,32", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def _probe_row(tmp_path, name, extra, config=None):
    out = tmp_path / f"{name}.csv"
    head = ["--config", str(config)] if config else []
    code = main(head + ["probe-embedding", "--ensemble", "random-gaussian", "--trials", "2",
                        "--n", "3", "--nt", "8", "--nx", "8", "--out", str(out)] + extra)
    assert code == EXIT_OK
    return out.read_text().splitlines()[2]


def test_probe_form_qij_axes_are_honoured(tmp_path):
    rows = {f: _probe_row(tmp_path, f, ["--form", f]) for f in ("qij12", "qij13", "qij23")}
    assert len(set(rows.values())) == 3
    cfg = tmp_path / "form.cfg"
    cfg.write_text("[probe]\nform = qij13\n")
    assert _probe_row(tmp_path, "from-file", [], config=cfg) == rows["qij13"]


@pytest.mark.parametrize("form", ["qij", "qij31", "qij14", "qij11", "qijab", "qij123", "q1"])
def test_probe_form_rejects_bad_names(tmp_path, capsys, form):
    code = main(["probe-embedding", "--ensemble", "random-gaussian", "--trials", "1",
                 "--n", "3", "--nt", "8", "--nx", "8", "--form", form])
    assert code == EXIT_CONFIG
    assert "ERROR\tcode=2" in capsys.readouterr().out


@pytest.mark.parametrize("cut", ["trailing", "truncated"])
def test_norms_rejects_malformed_field_file(tmp_path, capsys, cut):
    g = make_grid(2, 8, 8, 2 * math.pi, 2 * math.pi)
    path = tmp_path / "field.nflb"
    write_field(random_field(g, SPACETIME, 9), path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"\0" * 8 if cut == "trailing" else raw[:-8])
    assert main(["norms", "--field", str(path)]) == EXIT_CONFIG
    got = 16 * 512 + (8 if cut == "trailing" else -8)
    assert f"payload has {got} bytes, expected {16 * 512}" in capsys.readouterr().out
