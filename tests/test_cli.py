import csv
import math
from pathlib import Path

import numpy as np
import pytest

from nflab import cli
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


def test_admissible_rejects_q_below_two(capsys):
    assert main(["admissible", "--q", "1.5", "--r", "4", "--n", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "not-admissible\n"


def test_admissible_with_bilinear_conditions(capsys):
    assert main(["admissible", "--q", "4", "--r", "4", "--n", "3",
                 "--sigma", "0.25", "--s1", "0.375", "--s2", "0.375"]) == EXIT_OK
    assert "bilinear=inside" in capsys.readouterr().out
    # outside the stated (non-sharp) region the verdict is unknown, not false
    assert main(["admissible", "--q", "4", "--r", "4", "--n", "3",
                 "--sigma", "0.25", "--s1", "0.3", "--s2", "0.3"]) == EXIT_OK
    assert "bilinear=unknown" in capsys.readouterr().out


@pytest.mark.parametrize("given, missing", [
    (["--sigma", "0.5"], "adm.s1, adm.s2"),
    (["--s1", "0.3", "--s2", "0.3"], "adm.sigma"),
    (["--sigma", "0.25", "--s2", "0.375"], "adm.s1"),
], ids=["sigma-alone", "s1-s2-alone", "no-s1"])
def test_admissible_bilinear_indices_come_together(capsys, given, missing):
    assert main(["admissible", "--q", "4", "--r", "4", "--n", "3"] + given) == EXIT_CONFIG
    assert capsys.readouterr().out == (
        "ERROR\tcode=2\tmsg=the bilinear check needs adm.sigma, adm.s1 and adm.s2 together; "
        f"missing {missing}\n")


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


def test_symbol_check_draws_once_for_every_inequality(tmp_path, monkeypatch):
    draws, shared = [], []
    real_draw, real_check = cli.nf.frequency_pairs, cli.nf.check_symbol_inequality
    monkeypatch.setattr(cli.nf, "frequency_pairs",
                        lambda *a, **k: draws.append(a) or real_draw(*a, **k))
    monkeypatch.setattr(cli.nf, "check_symbol_inequality",
                        lambda name, pairs: shared.append(pairs) or real_check(name, pairs))
    assert main(["symbol-check", "--name", "all", "--samples", "2000", "--seed", "3",
                 "--out", str(tmp_path / "sym.csv")]) == EXIT_OK
    assert draws == [(2000, 3)]
    assert len(shared) == 10 and all(p is shared[0] for p in shared)


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


@pytest.mark.parametrize("line, value", [
    ('out = "a#b.csv"', "a#b.csv"), ('out = "a#b.csv"  # a comment', "a#b.csv"),
    ('out = "say \\"#1\\"" # "quoted"', 'say "#1"'), ("out = a # b", "a"),
    ('out = "a" # "b#c"', "a"), ('out = "x=#y" # z', "x=#y")])
def test_a_hash_starts_a_comment_only_outside_quotes(tmp_path, line, value):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[symbol]\n{line}\n")
    assert read_config(str(cfg)) == {"symbol.out": value}


def test_a_quoted_hash_names_the_output_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f'[symbol]\nsamples = 100\nout = "{tmp_path}/a#b.csv"  # the table\n')
    assert main(["--config", str(cfg), "symbol-check"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a#b.csv", "c.cfg"]


def test_a_key_given_twice_in_a_section_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[symbol]\nsamples = 1000\nseed = 2\n\n[symbol]\nsamples = 2000\n")
    assert main(["--config", str(cfg), "symbol-check"]) == EXIT_CONFIG
    assert capsys.readouterr().out == (
        f"ERROR\tcode=2\tmsg={cfg}:6: symbol.samples given twice, first on line 2\n")
    cfg.write_text("[adm]\nq = 4\n[kernel]\nq = 5\n")  # one key name in two sections
    assert read_config(str(cfg)) == {"adm.q": 4, "kernel.q": 5}


@pytest.mark.parametrize("value", ['"abc', '"abc  # the table', '"say \\"hi\\"', '"a" "b'])
def test_a_quoted_value_that_never_closes_is_a_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)  # where a relative `out` would land
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[symbol]\nsamples = 100\nout = {value}\n")
    assert main(["--config", str(cfg), "symbol-check"]) == EXIT_CONFIG
    assert capsys.readouterr().out == (
        f"ERROR\tcode=2\tmsg={cfg}:3: symbol.out has a quoted value that never closes\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


@pytest.mark.parametrize("value", ['"a" "b"', '"a"b', '"a" 1  # a comment', '"a\\q"'])
def test_a_quoted_value_must_be_one_string(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)  # where a relative `out` would land
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[symbol]\nsamples = 100\nout = {value}\n")
    assert main(["--config", str(cfg), "symbol-check"]) == EXIT_CONFIG
    assert capsys.readouterr().out == (
        f"ERROR\tcode=2\tmsg={cfg}:3: symbol.out has a quoted value that is not one JSON "
        "string\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]
    cfg.write_text('[symbol]\nout = "a b"  # a comment\n')
    assert read_config(str(cfg)) == {"symbol.out": "a b"}


def test_iterate_zero_data_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["iterate", "--system", "scalarQ0", "--J", "3", "--n", "2",
                 "--nt", "16", "--nx", "16", "--t-per", "1.0",
                 "--data-scale", "0.0", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "j,sup_Hs,d_j,ratio_j,flag"
    assert lines[2] == "0,0.0,,,"


@pytest.mark.parametrize("via", ["file", "flag"])
@pytest.mark.parametrize("text", ["-0.1", "nan", "Infinity", "inf", "-1e-300"])
def test_iterate_data_scale_must_be_finite_and_non_negative(tmp_path, capsys, monkeypatch,
                                                            via, text):
    monkeypatch.setattr(cli.it, "picard_run", lambda *a: pytest.fail("a Picard run started"))
    if via == "file":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[iterate]\ndata_scale = {text}\n")
        argv = ["--config", str(cfg), "iterate"]
    else:
        argv = ["iterate", f"--data-scale={text}"]
    assert main(argv + ["--out", str(tmp_path / "trace.csv")]) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"iterate.data_scale = '{text}'" in out
    assert not (tmp_path / "trace.csv").exists()


def test_iterate_mkgmodel_splits_three_components(tmp_path, monkeypatch):
    seen, real = [], cli.it.picard_run
    monkeypatch.setattr(cli.it, "picard_run", lambda spec, *a: seen.append(spec) or real(spec, *a))
    out = tmp_path / "mkg.csv"
    assert main(["iterate", "--system", "MKGmodel", "--components", "3", "--J", "2",
                 "--out", str(out)]) == EXIT_OK
    assert [(s.kind, s.N1, s.N2) for s in seen] == [("MKGmodel", 1, 2)]
    rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
    assert [r[0] for r in rows] == ["0", "1", "2"] and all(float(r[2]) > 0 for r in rows[1:])


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


@pytest.mark.parametrize("flag, value", [("--R", "nan"), ("--R", "inf"), ("--h", "nan"),
                                         ("--h", "1e-300"), ("--halvings", "1000")])
def test_probe_kernel_rejects_bad_truncation_or_step(flag, value, capsys):
    args = {"--R": "4", "--h": "0.2", "--halvings": "1"}
    args[flag] = value
    code = main(["probe-kernel", "--a", "1.2", "--b", "0.5", "--c", "0.0", "--n", "3"]
                + [x for kv in args.items() for x in kv])
    assert code == EXIT_CONFIG
    assert "ERROR\tcode=2" in capsys.readouterr().out


def test_probe_kernel_rejects_a_step_with_no_angular_brick(capsys, tmp_path):
    out = tmp_path / "kernel.csv"
    code = main(["probe-kernel", "--h", "3", "--halvings", "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    msg = capsys.readouterr().out
    assert msg.startswith("ERROR\tcode=2") and "h=3.0 leaves no angular brick" in msg
    assert "pi/sqrt(2)" in msg and not out.exists()


def test_probe_kernel_rejects_dimension_one(capsys, tmp_path):
    # S^0 has no polar angle, so the Schur certificate needs n >= 2
    out = tmp_path / "kernel.csv"
    code = main(["probe-kernel", "--n", "1", "--a", "0.2", "--b", "0.1", "--c", "0.1",
                 "--halvings", "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    msg = capsys.readouterr().out
    assert msg.startswith("ERROR\tcode=2") and "needs n >= 2, got n=1" in msg
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--a", "--b", "--c"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_probe_kernel_rejects_non_finite_exponents(flag, value, capsys, tmp_path):
    out = tmp_path / "kernel.csv"
    code = main(["probe-kernel", flag, value, "--R", "4", "--h", "0.2", "--out", str(out)])
    assert code == EXIT_CONFIG
    msg = capsys.readouterr().out
    assert msg.startswith("ERROR\tcode=2") and f"exponent {flag[2:]} must be finite" in msg
    assert f"got {value}" in msg and not out.exists()


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


def test_counterexample_scales_run_without_the_pool(tmp_path, monkeypatch):
    # each scale is milliseconds of small-array quadrature: the scales run in a plain loop
    monkeypatch.setattr(cli.lat, "pmap", lambda *a, **k: pytest.fail("entered the pool"))
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NFLAB_THREADS", threads)
        out = tmp_path / f"ce{threads}.csv"
        assert main(["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
                     "--L", "8,16,32", "--membership-samples", "1000",
                     "--out", str(out)]) == EXIT_OK
        outs.append((out.read_bytes(), Path(f"{out}.plot").read_bytes()))
    assert outs[0] == outs[1]


def test_counterexample_draws_membership_samples_once(tmp_path, monkeypatch):
    # one unit draw serves the four scales of the README command, at its golden bytes
    draws = []
    draw = cli.pr.membership_draw
    monkeypatch.setattr(cli.pr, "membership_draw", lambda *a: draws.append(a) or draw(*a))
    want = README_GOLDEN / "counterexample"
    for threads in ("1", "2"):
        monkeypatch.setenv("NFLAB_THREADS", threads)
        out = tmp_path / f"ce{threads}.csv"
        draws.clear()
        assert main(["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
                     "--L", "8,16,32,64", "--membership-samples", "1000000",
                     "--out", str(out)]) == EXIT_OK
        assert draws == [(1000000, 3, 0)]
        assert out.read_bytes() == (want / "ce.csv").read_bytes()
        assert Path(f"{out}.plot").read_bytes() == (want / "ce.csv.plot").read_bytes()


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


def test_probe_embedding_family_plot(tmp_path):
    out = tmp_path / "probe.csv"
    code = main(["probe-embedding", "--ensemble", "counterexample-family", "--n", "2",
                 "--scales", "4,6,8", "--out", str(out)])
    assert code == EXIT_OK
    header, _, *rows = out.read_text().splitlines()
    # one `L value` line per scale, as in the CSV's scale and value columns
    points = [" ".join(row.split(",")[-5:-3]) for row in rows]
    assert (tmp_path / "probe.csv.plot").read_text().splitlines() == [header] + points
    assert [p.split()[0] for p in points] == ["4.0", "6.0", "8.0"]
    assert header.startswith("# config:") and "probe.scales='4,6,8'" in header


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


@pytest.mark.parametrize("components", ["1", "2"])
def test_mkgmodel_needs_three_components(capsys, components):
    # with one v component Q_ij(v, v) = 0, so the u-equation would never move
    code = main(["iterate", "--system", "MKGmodel", "--components", components,
                 "--J", "1", "--n", "2", "--nt", "8", "--nx", "8"])
    assert code == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and "components >= 3" in out


def test_scalarq0_has_one_component(capsys, monkeypatch):
    # the header would record iterate.components=3 for a run of one component
    monkeypatch.setattr(cli.it, "picard_run", lambda *a: pytest.fail("a Picard run started"))
    code = main(["iterate", "--system", "scalarQ0", "--components", "3", "--J", "1",
                 "--nt", "8", "--nx", "8"])
    assert code == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and "has 1 component, got 3" in out


@pytest.mark.parametrize("system", ["YMmodel", "MKGmodel"])
def test_q_systems_need_two_spatial_axes(tmp_path, capsys, system):
    # at n = 1 Q_ij has no axis pair: the run would be free evolution, reported as converged
    out = tmp_path / "trace.csv"
    code = main(["iterate", "--system", system, "--components", "3", "--n", "1",
                 "--nt", "8", "--nx", "8", "--J", "3", "--out", str(out)])
    assert code == EXIT_CONFIG and not out.exists()
    msg = capsys.readouterr().out
    assert msg.startswith("ERROR\tcode=2") and f"{system} needs n >= 2" in msg


def test_unknown_system_is_a_config_error(capsys):
    assert main(["iterate", "--system", "nope", "--nt", "8", "--nx", "8"]) == EXIT_CONFIG
    assert capsys.readouterr().out.startswith("ERROR\tcode=2\tmsg=unknown system 'nope'")


def test_iterate_records_the_max_freq_that_acted(tmp_path):
    # |k| <= N_x // 2 = 4 already holds every mode, so 50 runs what 4 runs and is recorded as 4
    outs = [tmp_path / f"{m}.csv" for m in ("4", "50")]
    for m, out in zip(("4", "50"), outs):
        assert main(["iterate", "--nt", "8", "--nx", "8", "--J", "2", "--max-freq", m,
                     "--out", str(out)]) == EXIT_OK
    assert " iterate.max_freq=4 " in outs[1].read_text().splitlines()[0]
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_norms_of_a_stored_field_records_its_lattice(tmp_path):
    # the stored (2, 8, 8) field of period 1 is what runs: grid flags and the seed select nothing
    path = tmp_path / "f.nflb"
    write_field(random_field(make_grid(2, 8, 8, 1.0, 1.0), SPACETIME, 4), path)
    outs = [tmp_path / "plain.csv", tmp_path / "flags.csv"]
    for out, extra in zip(outs, ([], ["--nt", "32", "--nx", "64", "--n", "3", "--seed", "7"])):
        assert main(["norms", "--field", str(path), "--out", str(out)] + extra) == EXIT_OK
    header = outs[0].read_text().splitlines()[0]
    for item in ("grid.L_per=1.0", "grid.N_t=8", "grid.N_x=8", "grid.T_per=1.0", "grid.n=2",
                 "norms.seed=None"):
        assert f" {item} " in header
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_counterexample_without_membership_samples_records_no_seed(tmp_path):
    # with no membership samples the seed selects nothing, so it is recorded as None
    outs = [tmp_path / "seed0.csv", tmp_path / "seed7.csv"]
    for out, seed in zip(outs, ("0", "7")):
        assert main(["counterexample", "--n", "3", "--L", "8,16,32", "--seed", seed,
                     "--out", str(out)]) == EXIT_OK
    assert " ce.seed=None " in outs[0].read_text().splitlines()[0]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "seed0.csv.plot").read_bytes() == (tmp_path / "seed7.csv.plot").read_bytes()


def test_family_records_only_what_acted(tmp_path):
    # the family draws nothing and builds a lattice per scale: trials, seed and grid sizes
    # select nothing, so they are recorded as None and the default scales as the ones run
    outs = [tmp_path / "plain.csv", tmp_path / "flags.csv"]
    extra = ["--trials", "3", "--seed", "9", "--nt", "64", "--nx", "4", "--t-per", "2"]
    for out, flags in zip(outs, ([], extra)):
        assert main(["probe-embedding", "--ensemble", "counterexample-family", "--n", "2",
                     "--out", str(out)] + flags) == EXIT_OK
    header = outs[0].read_text().splitlines()[0]
    for item in ("grid.L_per=None", "grid.N_t=None", "grid.N_x=None", "grid.T_per=None",
                 "grid.n=2", "probe.scales='4,6,8,12'", "probe.seed=None", "probe.trials=None"):
        assert f" {item}" in header
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "plain.csv.plot").read_bytes() == (tmp_path / "flags.csv.plot").read_bytes()


@pytest.mark.parametrize("halvings", ["-3", "2000"])
def test_probe_kernel_rejects_halvings_before_the_ladder(capsys, monkeypatch, halvings):
    monkeypatch.setattr(cli.pr, "schur_ladder", lambda *a: pytest.fail("ladder was built"))
    code = main(["probe-kernel", "--R", "4", "--h", "0.2", "--halvings", halvings])
    assert code == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"kernel.halvings = '{halvings}'" in out


@pytest.mark.parametrize("via", ["file", "flag"])
@pytest.mark.parametrize("command, section, key, text", [
    ("iterate", "iterate", "J", "2.5"),
    ("symbol-check", "symbol", "samples", "10.5"),
    ("admissible", "adm", "q", "true"),
    ("admissible", "adm", "q", "four"),
    ("symbol-check", "symbol", "samples", "-5"),
    ("iterate", "iterate", "components", "0"),
    ("iterate", "iterate", "components", "-1"),
    ("iterate", "iterate", "max_freq", "-1"),
    ("counterexample", "ce", "membership_samples", "-1"),
])
def test_bad_value_is_a_config_error_naming_key_and_value(tmp_path, capsys, via,
                                                          command, section, key, text):
    if via == "file":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {text}\n")
        argv = ["--config", str(cfg), command]
    else:
        argv = [command, "--" + key.replace("_", "-"), text]
    assert main(argv) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"{section}.{key} = '{text}'" in out


def test_null_in_a_file_leaves_the_default(tmp_path, capsys):
    cfg = tmp_path / "adm.cfg"
    cfg.write_text("[adm]\nq = null\nr = 6\nsigma = null\n")
    assert main(["--config", str(cfg), "admissible"]) == EXIT_OK
    assert capsys.readouterr().out == "admissible s=0.75\n"  # q = 4, n = 3: 3/2 - 3/6 - 1/4


def test_quoted_integer_in_file_reads_like_the_flag(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text('[grid]\nn = "2"\n')
    args = ["norms", "--nt", "8", "--nx", "8", "--seed", "1", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code = main(["--config", str(cfg)] + args + [str(a)])
    assert code in (EXIT_OK, EXIT_NUMERICAL)
    assert main(args + [str(b), "--n", "2"]) == code
    assert a.read_bytes() == b.read_bytes()


def test_only_config_errors_map_to_exit_2(monkeypatch):
    def broken(*args):
        raise KeyError("bug")
    monkeypatch.setattr(cli.mult, "is_wave_admissible", broken)
    with pytest.raises(KeyError):
        main(["admissible"])


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_flag_and_file_resolve_alike(tmp_path, command):
    opts = cli.COMMANDS[command][2]
    parser = cli.build_parser()
    for o in opts:
        if o.default is None:
            continue
        switch = isinstance(o.default, bool)
        text = "true" if switch else str(o.default)
        section, key = o.key.split(".", 1)
        path = tmp_path / f"{o.key}.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        from_file = cli._resolve(opts, read_config(str(path)), {})
        flag = [cli._flag(o)] + ([] if switch else [text])
        from_flag = cli._resolve(opts, {}, vars(parser.parse_args([command] + flag)))
        assert from_file == from_flag, o.key
        assert cli._header(from_file) == cli._header(from_flag)
        if not switch:
            assert type(from_flag[o.key]) is type(o.default) and from_flag[o.key] == o.default
    header = cli._header(cli._resolve(opts, {}, {}))
    for o in opts:
        assert (f" {o.key}=" in header) == (not o.key.endswith(".out")), o.key


def test_scales_with_a_lattice_ensemble_is_a_config_error(capsys):
    code = main(["probe-embedding", "--ensemble", "random-gaussian", "--scales", "4,6,8",
                 "--n", "2", "--nt", "8", "--nx", "8", "--trials", "1"])
    assert code == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and "counterexample-family" in out


@pytest.mark.parametrize("flags, name", [(["--form", "q0"], "form"), (["--unary"], "unary"),
                                         (["--target-q", "4", "--target-r", "4"],
                                          "target_q/target_r")])
def test_family_rejects_options_it_would_ignore(capsys, monkeypatch, flags, name):
    monkeypatch.setattr(cli.pr, "counterexample_lattice_ratio",
                        lambda *a: pytest.fail("a scale was computed"))
    code = main(["probe-embedding", "--ensemble", "counterexample-family", "--n", "2",
                 "--scales", "4,6,8"] + flags)
    assert code == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"takes no {name}\n" in out


@pytest.mark.parametrize("scales, bad", [("4,6,inf", "inf"), ("4,6,nan", "nan"),
                                         ("-4,6,8", "-4.0"), ("0.5,1,2", "0.5")])
def test_family_scales_checked_before_any_is_computed(capsys, monkeypatch, scales, bad):
    monkeypatch.setattr(cli.pr, "counterexample_lattice_ratio",
                        lambda *a: pytest.fail("a scale was computed"))
    code = main(["probe-embedding", "--ensemble", "counterexample-family", "--n", "2",
                 f"--scales={scales}"])
    assert code == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"got {bad}" in out


@pytest.mark.parametrize("L, bad", [("8,16,inf", "inf"), ("8,nan,16", "nan")])
def test_counterexample_rejects_non_finite_scale(capsys, monkeypatch, L, bad):
    monkeypatch.setattr(cli.pr, "counterexample_norms",
                        lambda *a: pytest.fail("a scale was computed"))
    assert main(["counterexample", "--L", L]) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"got {bad}" in out


@pytest.mark.parametrize("command, key, n", [("admissible", "adm.n", "0"),
                                             ("admissible", "adm.n", "-2"),
                                             ("probe-kernel", "kernel.n", "0")])
def test_dimension_below_one_is_a_config_error(capsys, command, key, n):
    assert main([command, "--n", n]) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"{key} = '{n}'" in out


def test_readme_iterate_golden(tmp_path):
    """The README `nflab iterate` run: sup_Hs and the flag exactly, d_1 and d_2 to 1e-12
    relative, and every d_j to 1e-15 sup_Hs[0] absolute (the later d_j are rounding noise)."""
    out = tmp_path / "trace.csv"
    assert main(["iterate", "--system", "scalarQ0", "--J", "8", "--n", "2", "--nt", "32",
                 "--nx", "32", "--t-per", "1.0", "--out", str(out)]) == EXIT_OK
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    sup0 = 0.2080522968107578
    assert [r[1] for r in rows] == [repr(sup0)] * 9
    assert [r[4] for r in rows] == [""] * 8 + ["converged"]
    pinned = [0.00029352998976638105, 1.7428988224576195e-07, 1.9279576463924503e-10,
              7.716387934763581e-13, 2.3687292752696785e-14, 2.837342214464849e-16,
              8.689996738299142e-18, 7.596868648120013e-18]
    d = [float(r[2]) for r in rows[1:]]
    assert len(d) == len(pinned)
    for got, want in zip(d[:2], pinned[:2]):
        assert abs(got - want) <= 1e-12 * want
    for got, want in zip(d, pinned):
        assert abs(got - want) <= 1e-15 * sup0


@pytest.mark.parametrize("argv, row", [
    (["--trials", "40", "--left-s", "1.2", "--left-theta", "0.6", "--right-s", "1.2",
      "--right-theta", "0.6", "--target-s", "1.2", "--target-theta", "0.6"],
     ["embedding", '{"left":[1.2,0.6],"right":[1.2,0.6],"target":[1.2,0.6]}', "",
      "0.041108011283445524", "", "0.003138226748080775", "bounded-consistent"]),
    (["--trials", "20", "--unary", "--left-s", "0.0", "--left-theta", "0.6",
      "--target-q", "inf", "--target-r", "2"],
     ["embedding", '{"left":[0.0,0.6],"target_mixed":["inf",2.0]}', "",
      "0.5080546540648575", "", "0.001024706069278164", "bounded-consistent"]),
])
def test_readme_cone_probes_are_golden(tmp_path, argv, row):
    # the two cone-concentrated probe-embedding commands of the README, every
    # CSV field as written (floats by repr)
    out = tmp_path / "probe.csv"
    assert main(["probe-embedding", "--ensemble", "cone-concentrated", *argv,
                 "--out", str(out)]) == EXIT_OK
    header, columns, line = out.read_text().splitlines()
    assert header.startswith("# config:")
    assert columns == "probe_id,param_json,scale,value,slope,residual,verdict"
    assert next(csv.reader([line], quotechar="'")) == row


README_GOLDEN = Path(__file__).parent / "data" / "readme"


@pytest.mark.parametrize("name, argv", [
    ("admissible", ["admissible", "--q", "4", "--r", "4", "--n", "3"]),
    # the README runs 10^6 samples; 10^5 keeps the test fast on the same code path
    ("symbol-check", ["symbol-check", "--name", "all", "--samples", "100000", "--seed", "0",
                      "--out", "sym.csv"]),
    ("norms", ["norms", "--n", "2", "--nt", "16", "--nx", "16", "--s", "0.5", "--theta", "0.6",
               "--q", "1", "--r", "2", "--seed", "0"]),
    ("probe-kernel", ["probe-kernel", "--a", "1.2", "--b", "0.2", "--c", "0.3", "--variant",
                      "homogeneous", "--n", "3", "--R", "16", "--h", "0.1", "--halvings", "2",
                      "--out", "kernel.csv"]),
    ("counterexample", ["counterexample", "--n", "3", "--s", "0.4", "--theta", "0.6",
                        "--L", "8,16,32,64", "--membership-samples", "1000000",
                        "--out", "ce.csv"]),
    ("selftest", ["selftest"]),
])
def test_readme_commands_are_golden(tmp_path, monkeypatch, capsys, name, argv):
    # stdout and every file a README command writes, byte for byte
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK
    want = README_GOLDEN / name
    assert capsys.readouterr().out.encode() == (want / "stdout").read_bytes()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in want.iterdir() if p.name != "stdout")
    for f in written:
        assert (tmp_path / f).read_bytes() == (want / f).read_bytes(), f


@pytest.mark.parametrize("system", ["WM", "YMmodel", "MKGmodel", "WMM", "scalarQ0"])
def test_iterate_traces_are_golden(tmp_path, capsys, system):
    # each model system's Picard trace on n = 3, (N_t, N_x) = (16, 8), byte for byte
    out = tmp_path / "trace.csv"
    components = "1" if system == "scalarQ0" else "3"
    assert main(["iterate", "--system", system, "--components", components, "--J", "4",
                 "--n", "3", "--nt", "16", "--nx", "8", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (Path(__file__).parent / "data" / "iterate" /
                                f"{system}.csv").read_bytes()


@pytest.mark.parametrize("argv, key", [
    (["iterate", "--s", "nan", "--nt", "8", "--nx", "8", "--J", "2"], "iterate.s"),
    (["probe-embedding", "--left-s", "nan", "--trials", "2", "--nt", "8", "--nx", "8"],
     "probe.left_s"),
    (["admissible", "--q", "NaN"], "adm.q")])
def test_a_nan_option_is_a_config_error_naming_its_key(capsys, argv, key):
    assert main(argv) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"{key} = " in out and "not NaN" in out


@pytest.mark.parametrize("argv", [
    ["counterexample", "--L", "8,8,8"],
    ["probe-embedding", "--ensemble", "counterexample-family", "--scales", "4,4,4"],
    ["probe-embedding", "--ensemble", "counterexample-family", "--scales", "4,6,4,6"]])
def test_a_scaling_fit_needs_three_distinct_scales(capsys, monkeypatch, argv):
    calls = []  # the count is checked before any scale is computed
    for name in ("counterexample_norms", "counterexample_lattice_ratio"):
        monkeypatch.setattr(cli.pr, name, lambda *a, name=name: calls.append(name))
    assert main(argv) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and "3 distinct scales" in out
    assert calls == []


@pytest.mark.parametrize("argv, key", [
    (["iterate", "--s", "inf", "--nt", "8", "--nx", "8", "--J", "2"], "iterate.s"),
    (["iterate", "--theta=-inf", "--nt", "8", "--nx", "8", "--J", "2"], "iterate.theta"),
    (["probe-embedding", "--left-s", "inf", "--trials", "2", "--nt", "8", "--nx", "8"],
     "probe.left_s"),
    (["probe-embedding", "--right-theta", "Infinity", "--trials", "2", "--nt", "8", "--nx", "8"],
     "probe.right_theta"),
    (["probe-embedding", "--target-s=-inf", "--trials", "2", "--nt", "8", "--nx", "8"],
     "probe.target_s"),
    (["norms", "--theta", "inf", "--nt", "8", "--nx", "8"], "norms.theta"),
    (["norms", "--s", "inf", "--nt", "8", "--nx", "8"], "norms.s"),
    (["counterexample", "--s", "inf", "--L", "8,16,32"], "ce.s"),
    (["counterexample", "--theta=-inf", "--L", "8,16,32"], "ce.theta")])
def test_an_infinite_index_is_a_config_error_naming_its_key(capsys, argv, key):
    assert main(argv) == EXIT_CONFIG
    out = capsys.readouterr().out
    assert out.startswith("ERROR\tcode=2") and f"{key} = " in out and "must be finite" in out
