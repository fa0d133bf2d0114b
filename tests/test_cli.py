"""Problem-file loading, pipeline exit codes, artifact layout, determinism,
and independent re-verification."""

import ast
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercomplete import cli
from ordercomplete.cli import (
    _TAKEN_AS_STORED,
    RunConfig,
    load_spec,
    main,
    run_pipeline,
    verify,
)
from ordercomplete.expr import render

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(__file__).resolve().parent.parent / "src"

GOOD_SPEC = """\
n = 1
K = 1
m = 1
box.lo = 0
box.hi = 3
grid = 64
F1 = u[1,(1)] + u[1,(0)]^3
f1 = cos(x1) + sin(x1)^3
exact1 = sin(x1)
"""


def _write(tmp_path, text, name="prob.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# load_spec


def test_load_bundled_manufactured_spec():
    system, exact, grid = load_spec(DEMOS / "manufactured_1d.spec")
    assert (system.n, system.K, system.m) == (1, 1, 1)
    assert grid == 512
    assert render(system.F[0]) == "u[1,(1)] + u[1,(0)]^3"
    assert render(system.f[0]) == "cos(x1) + sin(x1)^3"
    assert [render(e) for e in exact] == ["sin(x1)"]
    assert system.box_lo[0] == 0.0 and system.box_hi[0] == 3.0


def test_load_bundled_negative_control():
    system, exact, grid = load_spec(DEMOS / "unsolvable_1d.spec")
    assert render(system.F[0]) == "u[1,(0)]^2"
    assert render(system.f[0]) == "-1"
    assert exact is None


def test_load_missing_key_names_it(tmp_path):
    text = GOOD_SPEC.replace("f1 = cos(x1) + sin(x1)^3\n", "")
    with pytest.raises(ValueError, match="'f1'"):
        load_spec(_write(tmp_path, text))


def test_load_signature_error_names_key(tmp_path):
    text = GOOD_SPEC.replace("m = 1", "m = 0")
    with pytest.raises(ValueError, match="'F1'"):
        load_spec(_write(tmp_path, text))


def test_load_duplicate_key(tmp_path):
    with pytest.raises(ValueError, match="duplicate key 'n'"):
        load_spec(_write(tmp_path, "n = 1\nn = 2\n"))


def test_load_malformed_line(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        load_spec(_write(tmp_path, "just some words\n"))


def test_load_bad_number(tmp_path):
    text = GOOD_SPEC.replace("grid = 64", "grid = many")
    with pytest.raises(ValueError, match="'grid'"):
        load_spec(_write(tmp_path, text))


def test_load_box_arity(tmp_path):
    text = GOOD_SPEC.replace("box.hi = 3", "box.hi = 3, 4")
    with pytest.raises(ValueError, match="box"):
        load_spec(_write(tmp_path, text))


def test_load_jet_vars_rejected_in_rhs_and_exact(tmp_path):
    bad_rhs = GOOD_SPEC.replace("f1 = cos(x1) + sin(x1)^3", "f1 = u[1,(0)]")
    with pytest.raises(ValueError, match="'f1'"):
        load_spec(_write(tmp_path, bad_rhs))
    bad_exact = GOOD_SPEC.replace("exact1 = sin(x1)", "exact1 = u[1,(1)]")
    with pytest.raises(ValueError, match="'exact1'"):
        load_spec(_write(tmp_path, bad_exact))


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(spec="s", gamma=0.0, stages=2, grid=64, out="o")
    with pytest.raises(ValueError):
        RunConfig(spec="s", gamma=0.4, stages=0, grid=64, out="o")
    with pytest.raises(ValueError):
        RunConfig(spec="s", gamma=0.4, stages=2, grid=4, out="o")


@pytest.mark.parametrize("flag", ["--gamma=nan", "--gamma=inf", "--gamma=-inf",
                                  "--eps-max=0", "--eps-max=-1", "--eps-max=nan",
                                  "--eps-max=inf", "--seed=-1"])
def test_run_exit3_on_bad_numeric_flag(tmp_path, capsys, flag):
    # the last --gamma on the command line wins
    out = tmp_path / "out"
    code = main(["run", str(DEMOS / "manufactured_1d.spec"), "--gamma", "0.2",
                 "--stages", "1", "--out", str(out), flag])
    assert code == 3
    assert "config error" in capsys.readouterr().out
    assert not out.exists()


# ---------------------------------------------------------------------------
# pipeline runs


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    spec = tmp / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out = tmp / "out"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "2", "--out", str(out)
    ])
    assert code == 0
    return out


def test_run_writes_expected_artifacts(run_dir):
    for name in ("certificate.json", "summary.txt",
                 "global_lower.json", "global_upper.json", "f1.csv"):
        assert (run_dir / name).is_file()
    for n in (1, 2):
        sdir = run_dir / f"stage{n}"
        assert (sdir / "poly.json").is_file()
        assert (sdir / "tv_u1.csv").is_file()
        for tag in ("u1_a0", "u1_a1"):
            for prefix in ("d", "lo", "hi"):
                assert (sdir / f"{prefix}_{tag}.csv").is_file()
    cert = json.loads((run_dir / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    assert cert["schema"] == 2
    assert cert["problem"]["exact"] == ["sin(x1)"]
    assert cert["assumption"]["interior"]["supported"] is True
    assert "not a proof" in cert["assumption"]["note"]
    assert cert["config"]["band_tol"] == 4.0 * max(cert["tiling"]["radii"]) / 2
    assert all(b["passed"] for b in cert["order_convergence"]["bands"].values())
    summary = (run_dir / "summary.txt").read_text()
    assert "verdict: pass" in summary
    assert "EVIDENCE" in summary or "evidence" in summary


def test_run_csv_files_match_the_row_loop_reference(run_dir, tmp_path):
    # every CSV file of the run, all rendered from one domain's cached row
    # text, has the bytes the csv.writer row loop gives its contents
    from test_grids import _reference_write_csv

    from ordercomplete.grids import read_csv

    paths = sorted(run_dir.rglob("*.csv"))
    assert len(paths) == 1 + 2 * 7  # f1, then tv_u1 and d, lo, hi of two tags per stage
    want = tmp_path / "want.csv"
    for path in paths:
        _reference_write_csv(read_csv(path), want)
        assert path.read_bytes() == want.read_bytes(), path


def test_artifacts_are_one_line_of_compact_json(run_dir):
    names = ["certificate.json", "global_lower.json", "global_upper.json",
             "stage1/poly.json", "stage2/poly.json"]
    for name in names:
        text = (run_dir / name).read_text()
        assert text.count("\n") == 1 and text.endswith("\n"), name
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n", name


def test_run_deterministic(run_dir, tmp_path):
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out2 = tmp_path / "out2"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "2", "--out", str(out2)
    ])
    assert code == 0
    assert (out2 / "certificate.json").read_bytes() == \
        (run_dir / "certificate.json").read_bytes()
    assert (out2 / "stage1" / "poly.json").read_bytes() == \
        (run_dir / "stage1" / "poly.json").read_bytes()


def test_run_no_samples_flag(tmp_path):
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out = tmp_path / "lean"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "1",
        "--out", str(out), "--no-samples",
    ])
    assert code == 0
    assert (out / "certificate.json").is_file()
    assert not (out / "f1.csv").exists()
    assert not (out / "stage1" / "tv_u1.csv").exists()
    assert (out / "stage1" / "poly.json").is_file()  # certificates still complete


def test_grid_flag_overrides_file(tmp_path):
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)  # file says 64
    out = tmp_path / "g128"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "1",
        "--grid", "128", "--out", str(out),
    ])
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["config"]["grid"] == [128]


def test_run_exit3_on_unsupported_assumption(tmp_path, capsys):
    out = tmp_path / "bad"
    code = main([
        "run", str(DEMOS / "unsolvable_1d.spec"), "--gamma", "0.4",
        "--stages", "1", "--out", str(out),
    ])
    assert code == 3
    msg = capsys.readouterr().out
    assert "assumption" in msg and "unsupported" in msg
    assert not out.exists()  # a failed run makes no directory


def test_run_exit3_when_skipping_straight_to_solver(tmp_path, capsys):
    out = tmp_path / "bad2"
    code = main([
        "run", str(DEMOS / "unsolvable_1d.spec"), "--gamma", "0.4",
        "--stages", "1", "--out", str(out), "--skip-assumption-check",
    ])
    assert code == 3
    assert "construction failure" in capsys.readouterr().out


def test_run_skip_assumption_check_passes(tmp_path, capsys):
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out = tmp_path / "skipped"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "1",
        "--out", str(out), "--skip-assumption-check",
    ])
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["assumption"]["checked"] is False
    assert "interior" not in cert["assumption"]
    assert "check skipped by flag" in (out / "summary.txt").read_text()
    assert verify(out) == 0
    assert "all certificates reproduce" in capsys.readouterr().out


OVERFLOW_SPEC = """\
n = 1
K = 1
m = 1
box.lo = 0
box.hi = 1
grid = 32
F1 = u[1,(1)] + exp(u[1,(0)]^3)
f1 = 1 + x1
"""


def test_run_overflowing_operator_exits_documented(tmp_path, capsys):
    # exp(u^3) overflows on part of the trial jet box: those samples are
    # faults like a log of a negative value, never an uncaught OverflowError
    out = tmp_path / "overflow"
    code = main(["run", _write(tmp_path, OVERFLOW_SPEC), "--gamma", "0.2",
                 "--stages", "5", "--out", str(out)])
    assert code in (0, 2, 3)
    capsys.readouterr()
    if code != 3:
        assert verify(out) == code
        assert "all certificates reproduce" in capsys.readouterr().out


def test_run_exit3_on_numeric_fault(tmp_path, capsys):
    # f overflows at the box center, where the interior probe evaluates it
    spec = _write(tmp_path, OVERFLOW_SPEC.replace("f1 = 1 + x1", "f1 = exp(2000 * x1)"))
    out = tmp_path / "fault"
    for extra in ([], ["--skip-assumption-check"]):
        code = main(["run", spec, "--gamma", "0.2", "--stages", "1",
                     "--out", str(out), *extra])
        assert code == 3
        assert "construction failure" in capsys.readouterr().out
        assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("line, changed, message", [
    ("exact1 = sin(x1)", "exact1 = log(x1 - 10) + sin(x1)",
     "construction failure: evaluation of 'log(x1 - 10) + sin(x1)' faulted at 512 of 512"),
    ("exact1 = sin(x1)", "exact1 = 3.9290429820462e+307",
     "construction failure: the reference solution's finite differences overflow"),
    ("box.hi = 3", "box.hi = 1e-300",
     "construction failure: delta=0.0 is below one grid cell (spacing (1.95"),
    ("box.hi = 3", "box.hi = inf", "spec error: box bounds must lie within +-1e+150"),
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = 4.494232837155791e+305",
     "construction failure: interior assumption unsupported at the box center "
     "(directional margin -inf)"),
    ("F1 = u[1,(1)] + u[1,(0)]^3",
     "F1 = (2.412428613329855e+307 - x1) / (-u[1,(0)] / u[1,(1)]^-1)",
     "construction failure: anchor jet unsolvable: no jet solution at x0=(1.5,)"),
    ("K = 1", "K = 0", "spec error: need at least one component, got K = 0"),
    ("box.lo = 0", "box.lo = zero", "spec error: key 'box.lo': not numbers: 'zero'\n"),
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(1)] + u[1,(0)]^3$",
     "spec error: key 'F1': unexpected character '$' (line 1, column 22)\n"),
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(1)] + u[1,(0)]^3)",
     "spec error: key 'F1': trailing input starting at ')' (line 1, column 22)\n"),
    ("m = 1", "m = -1", "spec error: invalid signature (n=1, K=1, m=-1)\n"),
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(1.5)] + u[1,(0)]^3",
     "spec error: key 'F1': expected multi-index entry (integer), found '1.5' "
     "(line 1, column 6)\n"),
    # a multi-index entry is a digit literal, so no entry is ever negative
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(-1)] + u[1,(0)]^3",
     "spec error: key 'F1': expected multi-index entry (integer), found '-' "
     "(line 1, column 6)\n"),
], ids=["faulting_exact", "overflowing_exact_derivative", "underflowing_diagonal",
        "infinite_box", "overflowing_probe_mean", "overflowing_residual_norm",
        "no_components", "word_for_a_bound", "trailing_dollar", "trailing_paren",
        "negative_order", "fractional_multi_index", "negative_multi_index"])
def test_run_exit3_on_the_demo_with_one_line_changed(tmp_path, capsys, line, changed, message):
    # the first seven each used to end in a traceback (under warnings as
    # errors for the overflows): the reference distances evaluate exact
    # once the stages are built, and difference its values; the box
    # diagonal's norm underflows to 0, so the I-cells would be of diameter
    # 0; an infinite box has no lattice; the interior probe's mean image,
    # and the norm of a Newton residual, overflow; with no component the
    # interior probe projected onto the axes of R^0. The spec errors after
    # them print one line each
    text = (DEMOS / "manufactured_1d.spec").read_text()
    assert line in text
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, text.replace(line, changed)), "--gamma", "0.2",
                 "--stages", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().out.startswith(message)
    assert not (out / "certificate.json").exists()


def test_run_exit3_on_spec_problems(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["run", str(tmp_path / "nope.spec"), "--gamma", "0.4",
                 "--stages", "1", "--out", str(out)]) == 3
    no_grid = _write(tmp_path, GOOD_SPEC.replace("grid = 64\n", ""))
    assert main(["run", no_grid, "--gamma", "0.4", "--stages", "1",
                 "--out", str(out)]) == 3
    assert "no grid resolution" in capsys.readouterr().out
    assert main(["run", no_grid, "--gamma", "0.4", "--stages", "1",
                 "--grid", "4", "--out", str(out)]) == 3
    capsys.readouterr()
    # a lattice that cannot be allocated fails at once, allocating nothing
    assert main(["run", no_grid, "--gamma", "0.4", "--stages", "1",
                 "--grid", "10000000000000000", "--out", str(out)]) == 3
    assert "spec error" in capsys.readouterr().out


def test_run_exit3_on_unusable_out_path(tmp_path, capsys):
    spec = _write(tmp_path, GOOD_SPEC)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    # --out names a file, or a path under one: no directory can be made
    for out in (blocker, blocker / "sub"):
        assert main(["run", spec, "--gamma", "0.4", "--stages", "1",
                     "--out", str(out)]) == 3
        text = capsys.readouterr().out
        assert text.startswith("output error: ") and text.count("\n") == 1
    # the directory is made, but a stage directory cannot be
    out = tmp_path / "blocked"
    out.mkdir()
    (out / "stage1").write_text("")
    assert main(["run", spec, "--gamma", "0.4", "--stages", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().out.startswith("output error: ")
    assert not (out / "certificate.json").exists()


def test_run_exit3_on_box_too_narrow_for_grid(tmp_path, capsys):
    # 64 points across 4 units at 1e16 (one ulp is 2) cannot increase strictly
    spec = _write(tmp_path, GOOD_SPEC.replace("box.lo = 0", "box.lo = 1e16")
                  .replace("box.hi = 3", "box.hi = 1.0000000000000004e16"))
    out = tmp_path / "narrow"
    assert main(["run", spec, "--gamma", "0.4", "--stages", "1",
                 "--out", str(out)]) == 3
    assert "spec error: lattice axes must increase" in capsys.readouterr().out


ABS_SPEC = """\
n = 1
K = 1
m = 1
box.lo = 0
box.hi = 3
grid = 128
F1 = u[1,(1)] + abs(u[1,(0)])
f1 = cos(x1 + 0.3) + abs(sin(x1 + 0.3))
exact1 = sin(x1 + 0.3)
"""


def test_run_and_verify_abs_operator(tmp_path, capsys):
    # u = sin(x + 0.3) crosses zero at x = pi - 0.3, inside the box, so the
    # jet solves meet the kink of abs, where the Jacobian uses sign(u)
    spec = tmp_path / "abs.spec"
    spec.write_text(ABS_SPEC)
    out = tmp_path / "abs"
    code = main(["run", str(spec), "--gamma", "0.2", "--stages", "3",
                 "--out", str(out), "--no-samples"])
    assert code == 0
    assert verify(out) == 0
    assert "all certificates reproduce" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verification


def test_verify_passes_on_fresh_run(run_dir, capsys):
    assert verify(run_dir) == 0
    assert "all certificates reproduce" in capsys.readouterr().out


def test_verify_detects_tampered_margin(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    cert["stages"][1]["eq1"]["lower_slack"] += 0.01
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "MISMATCH stages[1].eq1.lower_slack" in out


def test_verify_detects_tampered_polynomial(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered_poly"
    shutil.copytree(run_dir, copy)
    poly = json.loads((copy / "stage1" / "poly.json").read_text())
    poly["coeffs"][0][0][0] += 0.05
    (copy / "stage1" / "poly.json").write_text(json.dumps(poly))
    assert verify(copy) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_detects_tampered_verdict(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered_verdict"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    cert["verdict"] = "fail"
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    assert "MISMATCH verdict" in capsys.readouterr().out


def test_verify_detects_tampered_band_tol(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered_band_tol"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    cert["config"]["band_tol"] *= 10.0
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    assert "MISMATCH config.band_tol" in capsys.readouterr().out


def test_verify_detects_tampered_chain(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered_chain"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    band = cert["order_convergence"]["bands"]["u1_a0"]
    assert band["chain_ok"] and band["first_violation"] is None
    band["chain_ok"] = False
    band["first_violation"] = [1, "lambda", -0.5]
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "MISMATCH order_convergence.bands.u1_a0.chain_ok" in out
    assert "MISMATCH order_convergence.bands.u1_a0.first_violation" in out


def test_verify_detects_flipped_vacuous_flag(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered_vacuous"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    assert cert["stages"][0]["eq2"]["vacuous"] is True
    cert["stages"][0]["eq2"]["vacuous"] = False
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    assert "MISMATCH stages[0].eq2.vacuous" in capsys.readouterr().out



def _claim_passed_as_number(cert):
    eq1 = cert["stages"][0]["eq1"]
    assert eq1["passed"] is True
    eq1["passed"] = 1


def _claim_not_vacuous_as_number(cert):
    eq2 = cert["stages"][1]["eq2"]
    assert eq2["vacuous"] is False
    eq2["vacuous"] = 0


def _claim_operator_flags_as_numbers(cert):
    # no bool is left in the stored list, so it equals the recomputed one
    # under == as a whole
    (c,) = cert["order_convergence"]["operator"]
    c["chain_ok"], c["passed"] = int(c["chain_ok"]), int(c["passed"])


@pytest.mark.parametrize("tamper, message", [
    (_claim_passed_as_number, "MISMATCH stages[0].eq1.passed: stored 1, recomputed True"),
    (_claim_not_vacuous_as_number,
     "MISMATCH stages[1].eq2.vacuous: stored 0, recomputed False"),
    (_claim_operator_flags_as_numbers,
     "MISMATCH order_convergence.operator[0].passed: stored 1, recomputed True"),
], ids=["passed_1", "vacuous_0", "operator_flags"])
def test_verify_takes_no_number_for_a_flag(run_dir, tmp_path, capsys, tamper, message):
    # 1 == True in Python; a stored flag must be a JSON bool
    copy = _tampered(run_dir, tmp_path, "certificate.json", tamper)
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert message in out
    assert "verify: FAILED" in out


def _extra_top_level_key(cert):
    cert["reviewed"] = True


def _extra_stage_key(cert):
    cert["stages"][0]["reviewed"] = True


def _made_up_diagnostic(cert):
    assert cert["diagnostics"] == []
    cert["diagnostics"].append("stage 1 certificates: all checked by hand")


@pytest.mark.parametrize("tamper, message", [
    (_extra_top_level_key, "certificate: missing keys [], extra keys ['reviewed']"),
    (_extra_stage_key, "stages[0]: missing keys [], extra keys ['reviewed']"),
    (_made_up_diagnostic, "diagnostics: expected a list of 0 entries"),
], ids=["top_level", "stage_block", "diagnostics"])
def test_verify_rejects_extra_entries(run_dir, tmp_path, capsys, tamper, message):
    copy = _tampered(run_dir, tmp_path, "certificate.json", tamper)
    assert verify(copy) == 2
    assert f"artifact inconsistency: {message}" in capsys.readouterr().out


def test_verify_renders_the_problem_canonically(run_dir, tmp_path, capsys):
    # the same expression in other text: the problem block holds the render
    def respace(cert):
        assert cert["problem"]["F"] == ["u[1,(1)] + u[1,(0)]^3"]
        cert["problem"]["F"] = ["u[1,(1)]+u[1,(0)]^3"]

    copy = _tampered(run_dir, tmp_path, "certificate.json", respace)
    assert verify(copy) == 2
    assert ("MISMATCH problem.F[0]: stored u[1,(1)]+u[1,(0)]^3, recomputed "
            "u[1,(1)] + u[1,(0)]^3") in capsys.readouterr().out

def _move_i_cell(cert):
    cell = cert["tiling"]["i_cells"][0]
    cell["hi"] = [cell["hi"][0] + 0.01]


@pytest.mark.parametrize("tamper, field", [
    (_move_i_cell, "tiling.i_cells"),
], ids=lambda x: x.__name__.strip("_") if callable(x) else None)
def test_verify_derives_the_tiling(run_dir, tmp_path, capsys, tamper, field):
    # verify derives the tiling from the box and the lattice; no certificate
    # reads the stored I-cells
    copy = tmp_path / "tampered_tiling_field"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    tamper(cert)
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert f"MISMATCH {field}[0].hi[0]: stored " in out
    assert "verify: FAILED" in out


def _shift_i_jet(cert, stage):
    cert["stages"][stage]["i_jets"][0][0] += 0.5


def _move_i_jet_along_its_equation(cert, stage):
    # u' + u^3 keeps its value while u moves by 3, far outside the bands
    row = cert["stages"][stage]["i_jets"][0]
    u, du = row
    row[:] = [u + 3.0, du + u**3 - (u + 3.0) ** 3]


@pytest.mark.parametrize("tamper, stage, message", [
    (_shift_i_jet, 0, "stages[0].i_jets: anchor jet 0 does not solve its equation"),
    (_shift_i_jet, 1, "stages[1].i_jets: anchor jet 0 does not solve its equation"),
    (_move_i_jet_along_its_equation, 1,
     "stages[1].i_jets: anchor jet 0 lies outside the previous bands' inner box"),
], ids=["shift_stage1", "shift_stage2", "leave_box_stage2"])
def test_verify_checks_stored_anchor_jets(run_dir, tmp_path, capsys, tamper, stage, message):
    # no certificate reads the anchor jets, so verify checks each against
    # its equation and, after stage 1, the box its solve was confined to
    copy = tmp_path / "tampered_i_jets"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    tamper(cert, stage)
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert f"MISMATCH {message}" in out
    assert out.count("i_jets") == 1
    assert "verify: FAILED" in out


def _cut_band_rows(cert):
    for s in cert["stages"]:
        s["band_lo"] = [row[:1] for row in s["band_lo"]]


def _drop_band_row(cert):
    cert["stages"][0]["band_lo"].pop()


def _no_stages(cert):
    cert["stages"] = []


def _zero_stage_count(cert):
    cert["config"]["stages"] = 0
    cert["stages"] = []


def _huge_stage_count(cert):
    cert["config"]["stages"] = 10**16


def _huge_grid(cert):
    cert["config"]["grid"] = [10**16]


# a placeholder that the test writes into the JSON text as the literal 1e400,
# which json reads as inf
_OVERFLOW = "<1e400>"


def _overflowing_stage_count(cert):
    cert["config"]["stages"] = _OVERFLOW


def _overflowing_grid(cert):
    cert["config"]["grid"] = [_OVERFLOW]


def _overflowing_dimension(cert):
    cert["problem"]["n"] = _OVERFLOW


def _long_int_eps(cert):
    cert["global_pair"]["eps"] = 10**400  # too large for a float


def _long_int_gamma(cert):
    cert["config"]["gamma"] = 10**400


def _negative_seed(cert):
    cert["config"]["seed"] = -1  # outside RunConfig's range


def _no_operator_certificates(cert):
    cert["order_convergence"]["operator"] = []


def _renamed_band_tag(cert):
    bands = cert["order_convergence"]["bands"]
    bands["u1_a9"] = bands.pop("u1_a1")


def _list_certificate(cert):
    return []


def _string_certificate(cert):
    return "x"


@pytest.mark.parametrize(
    "tamper",
    [_cut_band_rows, _drop_band_row, _no_stages, _zero_stage_count,
     _huge_stage_count, _huge_grid, _overflowing_stage_count, _overflowing_grid,
     _overflowing_dimension, _long_int_eps, _long_int_gamma, _negative_seed,
     _no_operator_certificates, _renamed_band_tag, _list_certificate,
     _string_certificate],
    ids=lambda f: f.__name__.strip("_"),
)
def test_verify_malformed_certificate_exits_2(run_dir, tmp_path, capsys, tamper):
    # wrong shapes and counts are reported, never raised as a traceback
    copy = tmp_path / "malformed"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    replaced = tamper(cert)  # in place, or a whole new document
    text = json.dumps(cert if replaced is None else replaced)
    (copy / "certificate.json").write_text(text.replace(f'"{_OVERFLOW}"', "1e400"))
    assert verify(copy) == 2
    assert "artifact inconsistency" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["stage1/poly.json", "global_upper.json"])
def test_verify_rejects_foreign_signature_polynomial(run_dir, tmp_path, capsys, name):
    # K=2, m=0 has as many flat jet variables as the system's K=1, m=1 in
    # one dimension, so only the signature check tells the two apart
    copy = tmp_path / "foreign"
    shutil.copytree(run_dir, copy)
    poly = json.loads((copy / name).read_text())
    assert (poly["space_dim"], poly["components"], poly["order"]) == (1, 1, 1)
    poly.update(components=2, order=0, alphas=[[0]])
    poly["anchors"] = [2 * a for a in poly["anchors"]]
    poly["coeffs"] = [[[c] for c in p] for (p,) in poly["coeffs"]]
    (copy / name).write_text(json.dumps(poly))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "artifact inconsistency" in out and "signature" in out


def _recenter(poly):
    """Every anchor of a polynomial file moved to its cell's center, as run
    writes them, after a test moved the cell's faces."""
    poly["anchors"] = [[[0.5 * (a + b) for a, b in zip(lo, hi)]] * poly["components"]
                       for lo, hi in zip(poly["lo"], poly["hi"])]


def test_verify_detects_overlapping_j_cells(run_dir, tmp_path, capsys):
    # translating a J-cell half its width into its neighbour, its anchors
    # with it, keeps the volume sum, so only the overlap test can reject
    # the tiling
    copy = tmp_path / "tampered_tiling"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    poly = json.loads((copy / "stage1" / "poly.json").read_text())
    shift = 0.5 * (poly["hi"][0][0] - poly["lo"][0][0])
    assert poly["hi"][0] in poly["lo"][1:]  # a neighbour
    j_cell = cert["stages"][0]["j_cells"][0][0]
    for row in (poly["lo"][0], poly["hi"][0], j_cell["lo"], j_cell["hi"]):
        row[0] += shift
    _recenter(poly)
    (copy / "stage1" / "poly.json").write_text(json.dumps(poly))
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "artifact inconsistency" in out and "overlapping interiors" in out


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    # every openness radius of this run sits at the eps_max cap of 1.0
    out = tmp_path_factory.mktemp("demo") / "out"
    assert main(["run", str(DEMOS / "manufactured_1d.spec"), "--gamma", "0.2",
                 "--stages", "3", "--no-samples", "--out", str(out)]) == 0
    return out


def _tampered(run, tmp_path, name, tamper):
    """A copy of a run directory with one JSON artifact changed in place."""
    copy = tmp_path / "tampered"
    shutil.copytree(run, copy)
    data = json.loads((copy / name).read_text())
    tamper(data)
    (copy / name).write_text(json.dumps(data))
    return copy


def _nudge_upper_face(poly):
    # the face between the first two cells of the upper file, and their
    # anchors, move by far less than the lattice's snapping tolerance: same
    # skeleton, same samples
    assert poly["hi"][0] == poly["lo"][1]
    poly["hi"][0] = poly["lo"][1] = [poly["hi"][0][0] * (1 + 1e-12)]
    _recenter(poly)


@pytest.mark.parametrize("tamper", [_nudge_upper_face], ids=["nudged_upper_face"])
def test_verify_compares_global_pair_cells(demo_dir, tmp_path, capsys, tamper):
    # no sample tells the two files apart: the pair's certificate compares
    # the upper file's cells exactly with the lower file's
    copy = _tampered(demo_dir, tmp_path, "global_upper.json", tamper)
    assert _verify_quietly(copy, capsys) == (2, [
        "verify: artifact inconsistency: global pair: the lower and upper polynomials "
        "have different cells"])


def _face_onto_lattice(poly):
    # the face between the first two cells of the upper file moves to the
    # nearest point of the demo's lattice (512 points on [0, 3]), and
    # their anchors with it: the upper file now marks a skeleton point the
    # lower one does not
    axis = np.linspace(0.0, 3.0, 512)
    assert poly["hi"][0] == poly["lo"][1]
    poly["hi"][0] = poly["lo"][1] = [float(axis[np.argmin(abs(axis - poly["hi"][0][0]))])]
    _recenter(poly)


def test_verify_keeps_what_it_found_before_an_inconsistency(demo_dir, tmp_path, capsys):
    copy = _tampered(demo_dir, tmp_path, "global_upper.json", _face_onto_lattice)
    assert verify(copy) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verify: MISMATCH global_upper.json: cell 0 has a jet that does not solve its equation",
        "verify: artifact inconsistency: global pair: the lower and upper polynomials have "
        "different cells",
    ]


def _verify_quietly(run, capsys) -> tuple[int, list[str]]:
    """verify's exit code and stdout lines, failing on any warning or any
    stderr output (numpy's cast warnings among them)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = verify(run)
    out, err = capsys.readouterr()
    assert err == ""
    return code, out.splitlines()


def test_verify_rejects_a_j_cell_outside_the_box(demo_dir, tmp_path, capsys):
    # translating the last J-cell of stage 1 past the box's upper end, its
    # anchors with it, keeps the volume sum and opens a hole as large inside the box. The tiling
    # check runs as the file is read, before any cell check and before
    # Tiling.index_of, which half a width (the cell's center on the box
    # face, outside every I-cell) would make fail with numpy's message
    for fraction in (0.25, 0.5):
        copy = tmp_path / f"outside{fraction}"
        shutil.copytree(demo_dir, copy)
        cert = json.loads((copy / "certificate.json").read_text())
        poly = json.loads((copy / "stage1" / "poly.json").read_text())
        j_cell = cert["stages"][0]["j_cells"][-1][-1]
        assert j_cell == {"lo": poly["lo"][-1], "hi": poly["hi"][-1]}
        assert poly["hi"][-1] == cert["problem"]["box_hi"]
        shift = fraction * (poly["hi"][-1][0] - poly["lo"][-1][0])
        for row in (poly["lo"][-1], poly["hi"][-1], j_cell["lo"], j_cell["hi"]):
            row[0] += shift
        _recenter(poly)
        (copy / "stage1" / "poly.json").write_text(json.dumps(poly))
        (copy / "certificate.json").write_text(json.dumps(cert))
        last = len(poly["lo"]) - 1
        assert _verify_quietly(copy, capsys) == (2, [
            f"verify: artifact inconsistency: stage1/poly.json: cell {last} "
            f"{[poly['lo'][-1], poly['hi'][-1]]} reaches outside the box"])


@pytest.mark.parametrize("bound", [np.inf, -np.inf])
def test_verify_names_the_file_of_an_infinite_face(demo_dir, tmp_path, capsys, bound):
    # an infinite upper face is rejected as the file is read: it never
    # reaches Tiling.index_of, whose integer cast of it warns
    def infinite_face(poly):
        poly["hi"][-1][0] = bound  # json writes Infinity

    copy = _tampered(demo_dir, tmp_path, "stage1/poly.json", infinite_face)
    assert _verify_quietly(copy, capsys) == (2, [
        "verify: artifact inconsistency: stage1/poly.json: cell bounds must be finite, "
        "not NaN or +-inf"])


def test_verify_names_the_cell_of_an_off_center_anchor(demo_dir, tmp_path, capsys):
    # every polynomial is anchored at its cell's center: a file with any
    # other anchor is rejected as it is read, naming the file and the cell
    def moved_anchor(poly):
        poly["anchors"][2][0][0] += 1e-3

    copy = _tampered(demo_dir, tmp_path, "stage1/poly.json", moved_anchor)
    assert _verify_quietly(copy, capsys) == (2, [
        "verify: artifact inconsistency: stage1/poly.json: anchors: cell 2 is not anchored "
        "at its center"])


def _double_radii(cert):
    # every derived block that reads the radii is recomputed to match them
    from ordercomplete.checker import band_tolerance, eq3_certificate

    t = cert["tiling"]
    t["radii"] = [2.0 * r for r in t["radii"]]
    for s in cert["stages"]:
        eq3 = eq3_certificate(t["radii"], np.array(s["band_lo"]), np.array(s["band_hi"]),
                              s["n"])
        s["eq3"] = {"passed": eq3.passed, "max_ratio": eq3.max_ratio}
    tol = band_tolerance(t["radii"], len(cert["stages"]))
    cert["config"]["band_tol"] = tol
    for band in cert["order_convergence"]["bands"].values():
        band["tol"] = tol
        band["passed"] = band["chain_ok"] and band["sup_gap"] < tol and band["inf_gap"] < tol


def test_verify_checks_radii_against_eps_max(demo_dir, tmp_path, capsys):
    assert all(r == 1.0 for r in json.loads(
        (demo_dir / "certificate.json").read_text())["tiling"]["radii"])
    copy = _tampered(demo_dir, tmp_path, "certificate.json", _double_radii)
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert ("MISMATCH tiling.radii: radius 0 is 2.0, neither eps_max=1.0 nor in "
            "(r_min=1e-06, eps_max)") in out
    assert "verify: FAILED" in out


@pytest.mark.parametrize("radius", [1e308, 5e-324, 1e-6], ids=["huge", "subnormal", "r_min"])
def test_verify_stops_at_a_radius_run_cannot_write(demo_dir, tmp_path, capsys, radius):
    # run writes eps_max or a margin in (r_min, eps_max); verify reports any
    # other radius and computes nothing with it (1e308 overflowed the bands,
    # 5e-324 the EQ3 ratios)
    copy = _tampered(demo_dir, tmp_path, "certificate.json",
                     lambda c: c["tiling"]["radii"].__setitem__(0, radius))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert f"MISMATCH tiling.radii: radius 0 is {radius!r}, neither eps_max=1.0" in out
    assert out.endswith("verify: FAILED\n")


@pytest.mark.parametrize("key, value", [
    ("stages", 3.5), ("seed", 5.9), ("gamma", "0.2"), ("grid", [512.0]), ("stages", True),
], ids=["float_stages", "float_seed", "string_gamma", "float_grid", "bool_stages"])
def test_verify_rejects_an_input_of_a_type_run_never_writes(demo_dir, tmp_path, capsys,
                                                            key, value):
    # int() and float() would coerce each of these to an input run can write
    copy = _tampered(demo_dir, tmp_path, "certificate.json",
                     lambda c: c["config"].__setitem__(key, value))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert f"artifact inconsistency: config.{key}: {value!r}" in out


def test_verify_takes_no_number_for_the_assumption_flag(demo_dir, tmp_path, capsys):
    # a stored 1 is not true: verify rebuilds the block without the probe
    def checked_as_number(cert):
        assert cert["assumption"]["checked"] is True
        cert["assumption"]["checked"] = 1

    copy = _tampered(demo_dir, tmp_path, "certificate.json", checked_as_number)
    assert verify(copy) == 2
    assert "artifact inconsistency: assumption: missing keys [], extra keys ['interior']" \
        in capsys.readouterr().out


@pytest.mark.parametrize("key", ["lower_slack", "upper_slack"])
def test_verify_compares_final_stage_slacks_exactly(demo_dir, tmp_path, capsys, key):
    # a relative change of 1e-6: verify recomputes every number bit for bit
    def nudge(cert):
        eq1 = cert["stages"][-1]["eq1"]
        assert eq1[key] is not None and eq1[key] != 0.0
        eq1[key] *= 1 + 1e-6

    copy = _tampered(demo_dir, tmp_path, "certificate.json", nudge)
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert f"MISMATCH stages[2].eq1.{key}" in out
    assert "verify: FAILED" in out


def _shift_band_row(cert):
    # by a relative 1e-12: the stored bands are compared exactly
    s = cert["stages"][0]
    for key in ("band_lo", "band_hi"):
        s[key][0] = [v + 1e-12 * max(1.0, abs(v)) for v in s[key][0]]


def test_verify_recomputes_the_bands(demo_dir, tmp_path, capsys):
    copy = _tampered(demo_dir, tmp_path, "certificate.json", _shift_band_row)
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "MISMATCH stages[0].band_lo[0][0]: stored " in out
    assert "MISMATCH stages[0].band_hi[0][0]: stored " in out


def test_verify_recomputes_global_pair_at_gamma(demo_dir, tmp_path, capsys):
    # a pair certified only at twice gamma, its stored margins recomputed
    # at that eps: verify certifies the pair at config.gamma, as run does
    from ordercomplete.cli import _cert_dict
    from ordercomplete.grids import GridDomain
    from ordercomplete.jets import read_poly_json
    from ordercomplete.checker import apeq_certificate

    cert = json.loads((demo_dir / "certificate.json").read_text())
    system, _, _ = load_spec(DEMOS / "manufactured_1d.spec")
    u, v = (read_poly_json(demo_dir / f"global_{side}.json") for side in ("lower", "upper"))
    domain = GridDomain(system.box_lo, system.box_hi, cert["config"]["grid"])
    eps = 2.0 * cert["config"]["gamma"]
    gp = apeq_certificate(system, u, v, domain, eps)
    assert gp.passed and gp.eps == 0.4
    copy = _tampered(demo_dir, tmp_path, "certificate.json",
                     lambda c: c["global_pair"].update(_cert_dict(gp)))
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "MISMATCH global_pair.eps: stored 0.4, recomputed 0.2" in out
    assert "verify: FAILED" in out



def _leaf_paths(node, at=()):
    """The path of every leaf of a JSON document (an empty list counts as
    one), through the first and the last element of every list."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, (*at, key))
    elif isinstance(node, list) and node:
        for i in sorted({0, len(node) - 1}):
            yield from _leaf_paths(node[i], (*at, i))
    else:
        yield at


def _changed(leaf):
    """leaf, changed once: a bool flipped, an int plus 1, a float times
    (1 + 1e-6) (1e-6 for a zero), a string suffixed, an empty list
    replaced by [1.0] and null by 1.0."""
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, float):
        return leaf * (1 + 1e-6) if leaf else 1e-6
    if isinstance(leaf, str):
        return leaf + " "
    return [1.0] if leaf == [] else 1.0


def _taken_as_stored(at) -> bool:
    path = "".join("[]" if isinstance(k, int) else f".{k}" for k in at).lstrip(".")
    return any(path == p or path.startswith((p + ".", p + "[")) for p in _TAKEN_AS_STORED)


def test_verify_rejects_every_changed_derived_leaf(demo_dir, tmp_path, capsys):
    # a small mutation analysis of verify: each leaf of certificate.json
    # that verify derives, changed once, must fail it; a field added later
    # fails here until verify derives it or _TAKEN_AS_STORED names it
    cert = json.loads((demo_dir / "certificate.json").read_text())
    run = tmp_path / "sweep"
    shutil.copytree(demo_dir, run)
    paths = [at for at in _leaf_paths(cert) if not _taken_as_stored(at)]
    accepted = []
    for at in paths:
        doc = json.loads(json.dumps(cert))
        node = doc
        for key in at[:-1]:
            node = node[key]
        node[at[-1]] = _changed(node[at[-1]])
        (run / "certificate.json").write_text(json.dumps(doc))
        if verify(run) != 2:
            accepted.append(at)
    capsys.readouterr()
    assert accepted == []
    assert (len(paths), len(list(_leaf_paths(cert)))) == (115, 131)

def _first_leaf(node, at=()):
    """The path of the first leaf under a JSON node, through the first
    element of every list."""
    while isinstance(node, list):
        node, at = node[0], (*at, 0)
    return at


@pytest.mark.parametrize("name", ["global_lower.json", "stage1/poly.json"])
def test_verify_rejects_every_changed_polynomial_field(demo_dir, tmp_path, capsys, name):
    # the polynomial files' sweep: each header field (the first multi-index
    # entry for alphas), the first element of each array and the last
    # coefficient of the first cell (u'), changed once as in the
    # certificate sweep, must fail verify
    poly = json.loads((demo_dir / name).read_text())
    run = tmp_path / "sweep"
    shutil.copytree(demo_dir, run)
    paths = [_first_leaf(value, (key,)) for key, value in poly.items()]
    paths.append(("coeffs", 0, 0, -1))
    accepted = []
    for at in paths:
        doc = json.loads(json.dumps(poly))
        node = doc
        for key in at[:-1]:
            node = node[key]
        node[at[-1]] = _changed(node[at[-1]])
        (run / name).write_text(json.dumps(doc))
        if verify(run) != 2:
            accepted.append(at)
    capsys.readouterr()
    # but one: the value coefficient is 0.0 in every cell of the demo, where
    # F's derivative in u vanishes, so at 1e-6 the jet still solves its
    # cell's equation within the solver's tolerance (F moves by 1e-18) and
    # every certificate recomputed from it holds. verify, which never
    # re-solves, takes each jet that solves its equation in its box
    assert accepted == [("coeffs", 0, 0, 0)]
    assert len(paths) == 9


def _node_paths(node, at=()):
    """The path of every node of a JSON document below its root."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield (*at, key)
        yield from _node_paths(child, (*at, key))


_DELETE = "(deleted)"
# a deleted key or list element, or a value of another type or shape
_CORRUPTIONS = [_DELETE, "x", None, True, [], {}, [[1.0, 2.0], [3.0]]]


@pytest.fixture(scope="module")
def corrupted_dir(demo_dir, tmp_path_factory):
    """A copy of the demo run whose certificate a test may overwrite."""
    run = tmp_path_factory.mktemp("corrupted") / "run"
    shutil.copytree(demo_dir, run)
    return run


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_verify_exits_2_on_a_structurally_corrupted_certificate(demo_dir, corrupted_dir,
                                                                data):
    # never 1: no traceback, whatever node is deleted or replaced
    text = (demo_dir / "certificate.json").read_text()
    doc = json.loads(text)
    at = data.draw(st.sampled_from(list(_node_paths(doc))))
    corruption = data.draw(st.sampled_from(_CORRUPTIONS))
    node = doc
    for key in at[:-1]:
        node = node[key]
    if corruption == _DELETE:
        del node[at[-1]]
    else:
        node[at[-1]] = corruption
    changed = json.dumps(doc)
    if changed == json.dumps(json.loads(text)):
        return  # true over a true: the document is unchanged
    (corrupted_dir / "certificate.json").write_text(changed)
    with contextlib.redirect_stdout(io.StringIO()):
        assert verify(corrupted_dir) == 2


def _tamper_cells(data, poly):
    """One drawn structural tamper of a polynomial file's cells: a face moved
    by a drawn amount, an end cell pushed out of the box, a bound set to
    +-inf or NaN, a cell's lo and hi swapped, or a row dropped, duplicated
    or swapped with another."""
    cells, d = len(poly["lo"]), data.draw(st.integers(0, poly["space_dim"] - 1))
    kind = data.draw(st.sampled_from(["face", "push", "bound", "flip", "drop", "duplicate",
                                      "swap"]))
    if kind == "face":
        # every bound on the face moves, so the cells on both sides keep meeting
        face = data.draw(st.sampled_from(sorted({row[d] for side in ("lo", "hi")
                                                 for row in poly[side]})))
        moved = face + data.draw(st.floats(-4.0, 4.0))
        for row in poly["lo"] + poly["hi"]:
            if row[d] == face:
                row[d] = moved
    elif kind == "push":
        c = data.draw(st.sampled_from([0, cells - 1]))
        shift = data.draw(st.floats(0.0, 4.0)) * (-1.0 if c == 0 else 1.0)
        for side in ("lo", "hi"):
            poly[side][c][d] += shift
    elif kind == "bound":
        side, c = data.draw(st.sampled_from(["lo", "hi"])), data.draw(st.integers(0, cells - 1))
        poly[side][c][d] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    elif kind == "flip":
        c = data.draw(st.integers(0, cells - 1))
        poly["lo"][c], poly["hi"][c] = poly["hi"][c], poly["lo"][c]
    else:
        i, j = data.draw(st.integers(0, cells - 1)), data.draw(st.integers(0, cells - 1))
        for key in ("lo", "hi", "anchors", "coeffs"):  # a row is one cell's entries
            rows = poly[key]
            if kind == "drop":
                del rows[i]
            elif kind == "duplicate":
                rows.insert(j, rows[i])
            else:
                rows[i], rows[j] = rows[j], rows[i]


@pytest.fixture(scope="module")
def tampered_cells_dir(demo_dir, tmp_path_factory):
    """A copy of the demo run whose stage-1 polynomial file a test may
    overwrite."""
    run = tmp_path_factory.mktemp("tampered_cells") / "run"
    shutil.copytree(demo_dir, run)
    return run


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_verify_rejects_every_structural_tamper_of_a_polynomial_file(
        demo_dir, tampered_cells_dir, data):
    # exit 2 unless the bounds still equal the originals by value, and every
    # line verify's own: no traceback, nothing on stderr, no warning
    name = "stage1/poly.json"
    original = json.loads((demo_dir / name).read_text())
    poly = json.loads(json.dumps(original))
    _tamper_cells(data, poly)
    (tampered_cells_dir / name).write_text(json.dumps(poly))
    same = all(np.array_equal(np.array(poly[side], dtype=float), original[side])
               for side in ("lo", "hi"))
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = verify(tampered_cells_dir)
    lines = out.getvalue().splitlines()
    assert code == (0 if same else 2), lines
    assert lines and all(line.startswith("verify: ") for line in lines), lines
    assert err.getvalue() == ""


def test_verify_rejects_missing_or_foreign_dir(tmp_path, capsys):
    assert verify(tmp_path / "nothing_here") == 2
    assert "cannot read certificate" in capsys.readouterr().out
    for schema in (1, 99):
        (tmp_path / "certificate.json").write_text(f'{{"schema": {schema}}}')
        assert verify(tmp_path) == 2
        assert f"unsupported schema {schema}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# summary.txt


def _summary_copy(run, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run, copy)
    return copy, copy / "summary.txt"


def test_verify_rejects_a_changed_summary_digit(demo_dir, tmp_path, capsys):
    copy, summary = _summary_copy(demo_dir, tmp_path)
    text = summary.read_text()
    i = max(k for k, c in enumerate(text) if c.isdigit())
    summary.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    assert verify(copy) == 2
    assert "MISMATCH summary.txt" in capsys.readouterr().out


def test_verify_needs_the_summary(demo_dir, tmp_path, capsys):
    copy, summary = _summary_copy(demo_dir, tmp_path)
    summary.unlink()
    assert verify(copy) == 2
    assert "artifact inconsistency" in capsys.readouterr().out


def test_verify_rejects_a_passing_summary_over_a_failing_certificate(tmp_path, monkeypatch,
                                                                     capsys):
    # no demo run fails, so run and verify both take the verdict from a rule
    # that fails every scheme: verify reproduces the failing certificate, and
    # a summary.txt that says pass over it is a mismatch
    monkeypatch.setattr(cli, "scheme_verdict", lambda stages, conv, gp: (False, ["forced"]))
    out = tmp_path / "out"
    assert main(["run", str(DEMOS / "manufactured_1d.spec"), "--gamma", "0.2",
                 "--stages", "1", "--no-samples", "--out", str(out)]) == 2
    assert verify(out) == 2
    assert "all certificates reproduce; verdict fail" in capsys.readouterr().out
    summary = out / "summary.txt"
    summary.write_text(summary.read_text().replace("verdict: fail", "verdict: pass"))
    assert verify(out) == 2
    assert "MISMATCH summary.txt" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the checker's trusted base: verify runs no construction code

TRANSPORT_2D_SPEC = """\
n = 2
K = 1
m = 1
box.lo = 0 0
box.hi = 1 1
grid = 33
F1 = u[1,(1,0)] + u[1,(0,1)] + u[1,(0,0)]^3
f1 = cos(x1) + cos(x2) + (sin(x1) + sin(x2))^3
exact1 = sin(x1) + sin(x2)
"""


@pytest.fixture(scope="module")
def run_2d(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run2d")
    spec = tmp / "transport.spec"
    spec.write_text(TRANSPORT_2D_SPEC)
    out = tmp / "out"
    assert main(["run", str(spec), "--gamma", "0.4", "--stages", "2", "--no-samples",
                 "--out", str(out)]) == 0
    return out


class _Called(Exception):
    """A replaced routine was called (see _raising_everywhere)."""


def _raising_everywhere(monkeypatch, functions) -> set[str]:
    """Replace each of functions at every binding in the package's modules,
    as perfbench/tracing.py finds a traced routine, by one that raises
    _Called with its name; returns the names of those replaced."""
    def raiser(f):
        def called(*args, **kwargs):
            raise _Called(f"{f.__module__}.{f.__qualname__}")
        return called

    replaced = set()
    for name, module in list(sys.modules.items()):
        if name == "ordercomplete" or name.startswith("ordercomplete."):
            for attr, value in list(vars(module).items()):
                f = next((f for f in functions if value is f), None)
                if f is not None:
                    monkeypatch.setattr(module, attr, raiser(f))
                    replaced.add(f.__name__)
    return replaced


def test_verify_runs_no_construction_code(demo_dir, run_2d, monkeypatch, capsys):
    # every routine and class that solver defines, and the openness probe,
    # raise wherever the package binds them; verify still reproduces a 1D
    # and a 2D run, so it runs none of them
    from ordercomplete import pde, solver

    construction = [f for f in vars(solver).values()
                    if callable(f) and getattr(f, "__module__", None) == solver.__name__]
    replaced = _raising_everywhere(monkeypatch, [*construction, pde.check_assumption_open])
    assert {"jet_solve", "_newton", "_subdivide", "_generation_ok", "global_pair", "refine",
            "run_scheme", "check_assumption_open"} <= replaced
    for run in (demo_dir, run_2d):
        assert verify(run) == 0
    assert capsys.readouterr().out.count("all certificates reproduce; verdict pass") == 2


def test_verify_fails_when_a_checker_routine_raises(demo_dir, monkeypatch):
    # the replacement above reaches what verify calls, so that test cannot
    # pass for want of a binding replaced
    from ordercomplete import checker

    assert _raising_everywhere(monkeypatch, [checker.stage_bands]) == {"stage_bands"}
    with pytest.raises(_Called, match="checker.stage_bands"):
        verify(demo_dir)


def test_readme_trusted_base_table_counts_lines():
    # the README's table of what verify runs states each module's line
    # count, their total and solver's; all are recounted from the sources
    text = (SRC.parent / "README.md").read_text()
    table = text[text.index("What `verify` runs, by module"):]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([\d,]+) \|", table, re.M))

    def lines(module):
        return (SRC / "ordercomplete" / f"{module}.py").read_bytes().count(b"\n")

    assert rows and {m: int(k.replace(",", "")) for m, k in rows.items()} == {
        m: lines(m) for m in rows}
    total, solver = re.search(r"That is ([\d,]+) lines in \w+ modules; `intervals` and "
                              r"`solver` \(([\d,]+)\s+lines\)", table).groups()
    assert int(total.replace(",", "")) == sum(lines(m) for m in rows)
    assert int(solver.replace(",", "")) == lines("solver")


def test_checker_imports_no_solver():
    # no import statement of checker.py, relative or absolute, at module
    # level or inside a function, names the construction module
    tree = ast.parse((SRC / "ordercomplete" / "checker.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative, so from within the package
                base = f"ordercomplete.{base}".rstrip(".")
            imported.update([base, *(f"{base}.{a.name}" for a in node.names)])
    assert "ordercomplete.pde" in imported
    assert not any(m.split(".")[:2] == ["ordercomplete", "solver"] for m in imported)


# ---------------------------------------------------------------------------
# installed entry point


def _child_env():
    # the child finds the package where this test process does, installed
    # or not
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def test_package_root_imports_no_module():
    # each name has one import path, its home module: the package root
    # loads none of them, so it can re-export none
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ordercomplete; "
         "print(sorted(m for m in sys.modules if m.startswith('ordercomplete.')))"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point(tmp_path):
    env = _child_env()
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ordercomplete.cli", "run", str(spec),
         "--gamma", "0.4", "--stages", "1", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    proc2 = subprocess.run(
        [sys.executable, "-m", "ordercomplete.cli", "verify", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc2.returncode == 0, proc2.stdout + proc2.stderr
    assert "RuntimeWarning" not in proc2.stderr


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the CLI has loaded no scipy module, and no numpy.random either, which
    # the package loads only when it draws (see solver.jet_solve)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ordercomplete.cli; "
         "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.random'))))"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"
