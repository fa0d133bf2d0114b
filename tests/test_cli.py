"""Problem-file loading, pipeline exit codes, artifact layout, determinism,
and independent re-verification."""

import ast
import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import zipfile
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
from ordercomplete.jets import _record_dtype

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
    # a flat directory: 2N + 5 files, one CSV file per stage and one of f
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "certificate.json", "f.csv", "global_lower.npy", "global_upper.npy",
        "stage1.csv", "stage1.npy", "stage2.csv", "stage2.npy", "summary.txt"]
    assert all(p.is_file() for p in run_dir.iterdir())
    for n in (1, 2):
        header = (run_dir / f"stage{n}.csv").read_bytes().split(b"\r\n", 1)[0]
        assert header == (b"x1,tv_u1,d_u1_a0,lo_u1_a0,hi_u1_a0,"
                          b"d_u1_a1,lo_u1_a1,hi_u1_a1,skeleton")
    assert (run_dir / "f.csv").read_bytes().startswith(b"x1,f1,skeleton\r\n")
    cert = json.loads((run_dir / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    assert cert["schema"] == 5
    assert cert["global_pair"]["files"] == {"lower": "global_lower.npy",
                                            "upper": "global_upper.npy"}
    assert [s["file"] for s in cert["stages"]] == ["stage1.npy", "stage2.npy"]
    assert cert["problem"]["exact"] == ["sin(x1)"]
    assert cert["assumption"]["interior"]["supported"] is True
    assert "not a proof" in cert["assumption"]["note"]
    assert cert["config"]["band_tol"] == 4.0 * max(cert["tiling"]["radii"]) / 2
    assert all(b["passed"] for b in cert["order_convergence"]["bands"].values())
    summary = (run_dir / "summary.txt").read_text()
    assert "verdict: pass" in summary
    assert "EVIDENCE" in summary or "evidence" in summary


def test_run_csv_files_match_the_row_loop_reference(run_dir, tmp_path):
    # every CSV file of the run, each rendered from one domain's cached row
    # text, has the bytes the csv.writer row loop gives its columns
    from test_grids import _reference_write_csv

    from ordercomplete.grids import read_csv

    paths = sorted(run_dir.glob("*.csv"))
    assert [p.name for p in paths] == ["f.csv", "stage1.csv", "stage2.csv"]
    want = tmp_path / "want.csv"
    for path, width in zip(paths, (1, 7, 7)):  # f1; tv_u1 and d, lo, hi of two tags
        columns = read_csv(path)
        assert len(columns) == width
        _reference_write_csv(columns, want)
        assert path.read_bytes() == want.read_bytes(), path


def test_artifacts_are_one_line_of_compact_json(run_dir):
    text = (run_dir / "certificate.json").read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def test_polynomial_files_are_arrays_of_cell_records(run_dir):
    # numpy.load reads each polynomial file without pickle: one record per
    # cell, its corners, then its coefficients (components, multi-indices)
    for name in ("global_lower.npy", "global_upper.npy", "stage1.npy", "stage2.npy"):
        rec = np.load(run_dir / name, allow_pickle=False)
        assert rec.ndim == 1 and len(rec) > 0, name
        assert rec.dtype == np.dtype([("lo", "<f8", (1,)), ("hi", "<f8", (1,)),
                                      ("coeffs", "<f8", (1, 2))]), name
        assert rec["lo"].min() == 0.0 and rec["hi"].max() == 3.0, name  # the box [0, 3]


def test_run_deterministic(run_dir, tmp_path):
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out2 = tmp_path / "out2"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "2", "--out", str(out2)
    ])
    assert code == 0
    # the whole directory: the same files, each with the same bytes
    files = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*"))
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*"))
    assert len(files) == 9  # certificate, summary, f.csv, two global polynomial
    for f in files:         # files, and a polynomial and a CSV file per stage
        assert (out2 / f).read_bytes() == (run_dir / f).read_bytes(), f


def test_run_no_samples_flag(tmp_path):
    spec = tmp_path / "prob.spec"
    spec.write_text(GOOD_SPEC)
    out = tmp_path / "lean"
    code = main([
        "run", str(spec), "--gamma", "0.4", "--stages", "2",
        "--out", str(out), "--no-samples",
    ])
    assert code == 0
    # the samples run's files but the CSV files: the certificates still complete
    assert sorted(p.name for p in out.iterdir()) == [
        "certificate.json", "global_lower.npy", "global_upper.npy", "stage1.npy",
        "stage2.npy", "summary.txt"]
    assert all(p.is_file() for p in out.iterdir())


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
    # these two used to end in a RecursionError traceback (exit 1)
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = " + "(" * 300 + "u[1,(1)] + u[1,(0)]^3" + ")" * 300,
     "spec error: key 'F1': expression nested deeper than 100 levels (line 1, column 101)\n"),
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(1)] + u[1,(0)]^3" + " + 0" * 2000,
     "spec error: key 'F1': expression nested deeper than 100 levels (line 1, column 411)\n"),
    # used to end in an OverflowError traceback (exit 1) from numpy's power
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(1)] + u[1,(0)]^1" + "0" * 400,
     "spec error: key 'F1': exponent beyond 2^53 = 9007199254740992 (line 1, column 21)\n"),
    # used to end in an unlocated error from int() past Python's digit limit
    ("F1 = u[1,(1)] + u[1,(0)]^3", "F1 = u[1,(1" + "0" * 5000 + ")] + u[1,(0)]^3",
     "spec error: key 'F1': multi-index entry of 5001 digits out of range for m=1 "
     "(line 1, column 6)\n"),
], ids=["faulting_exact", "overflowing_exact_derivative", "underflowing_diagonal",
        "infinite_box", "overflowing_probe_mean", "overflowing_residual_norm",
        "no_components", "word_for_a_bound", "trailing_dollar", "trailing_paren",
        "negative_order", "fractional_multi_index", "negative_multi_index",
        "nested_parentheses", "long_sum", "huge_exponent", "huge_multi_index"])
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
    # the directory is made, but a stage's file cannot be: its name is a
    # directory
    out = tmp_path / "blocked"
    (out / "stage1.npy").mkdir(parents=True)
    assert main(["run", spec, "--gamma", "0.4", "--stages", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().out.startswith("output error: ")
    assert not (out / "certificate.json").exists()


def test_run_leaves_no_temporary_file_when_a_write_fails(tmp_path, capsys):
    # summary.txt, the last file written, is a directory: its temporary
    # sibling is written, cannot replace it, and is removed
    spec = _write(tmp_path, GOOD_SPEC)
    out = tmp_path / "blocked"
    (out / "summary.txt").mkdir(parents=True)
    assert main(["run", spec, "--gamma", "0.4", "--stages", "1", "--out", str(out)]) == 3
    text = capsys.readouterr().out
    assert text.startswith("output error: ") and "Is a directory" in text
    assert list(out.glob("*.tmp")) == []
    assert (out / "certificate.json").is_file() and (out / "summary.txt").is_dir()


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
    rec = np.load(copy / "stage1.npy")
    rec["coeffs"][0, 0, 0] += 0.05
    np.save(copy / "stage1.npy", rec)
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


def _records_of(rec, n, K, count):
    """Records of another signature: rec's cells, and the first K * count
    of each cell's coefficients."""
    out = np.zeros(len(rec), _record_dtype(n, K, count))
    out["lo"], out["hi"] = rec["lo"][:, :n], rec["hi"][:, :n]
    out["coeffs"] = rec["coeffs"].reshape(len(rec), -1)[:, :K * count].reshape(-1, K, count)
    return out


@pytest.mark.parametrize("name", ["stage1.npy", "global_upper.npy"])
def test_verify_rejects_foreign_signature_polynomial(run_dir, tmp_path, capsys, name):
    # K=2, m=0 has as many flat jet variables as the system's K=1, m=1 in
    # one dimension, so only the signature check tells the two apart
    copy = tmp_path / "foreign"
    shutil.copytree(run_dir, copy)
    rec = np.load(copy / name)
    assert rec.dtype == _record_dtype(1, 1, 2)
    np.save(copy / name, _records_of(rec, 1, 2, 1))
    assert _verify_quietly(copy, capsys) == (2, [
        f"verify: artifact inconsistency: {name}: signature (space_dim, components, order): "
        "expected (1, 1, 1), found (1, 2, 0)"])


def test_verify_detects_overlapping_j_cells(run_dir, tmp_path, capsys):
    # translating a J-cell half its width into its neighbour, its anchors
    # with it, keeps the volume sum, so only the overlap test can reject
    # the tiling
    copy = tmp_path / "tampered_tiling"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    rec = np.load(copy / "stage1.npy")
    shift = 0.5 * (rec["hi"][0, 0] - rec["lo"][0, 0])
    assert rec["hi"][0, 0] in rec["lo"][1:, 0]  # a neighbour
    j_cell = cert["stages"][0]["j_cells"][0][0]
    for row in (rec["lo"][0], rec["hi"][0], j_cell["lo"], j_cell["hi"]):
        row[0] += shift
    np.save(copy / "stage1.npy", rec)
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
    """A copy of a run directory with one artifact changed in place: the
    document of a JSON file, or the records of a polynomial file."""
    copy = tmp_path / "tampered"
    shutil.copytree(run, copy)
    if name.endswith(".npy"):
        rec = np.load(copy / name)
        tamper(rec)
        np.save(copy / name, rec)
    else:
        data = json.loads((copy / name).read_text())
        tamper(data)
        (copy / name).write_text(json.dumps(data))
    return copy


def _nudge_upper_face(rec):
    # the face between the first two cells of the upper file moves by far
    # less than the lattice's snapping tolerance: same skeleton, same samples
    assert rec["hi"][0, 0] == rec["lo"][1, 0]
    rec["hi"][0, 0] = rec["lo"][1, 0] = rec["hi"][0, 0] * (1 + 1e-12)


@pytest.mark.parametrize("tamper", [_nudge_upper_face], ids=["nudged_upper_face"])
def test_verify_compares_global_pair_cells(demo_dir, tmp_path, capsys, tamper):
    # no sample tells the two files apart: the pair's certificate compares
    # the upper file's cells exactly with the lower file's
    copy = _tampered(demo_dir, tmp_path, "global_upper.npy", tamper)
    assert _verify_quietly(copy, capsys) == (2, [
        "verify: artifact inconsistency: global pair: the lower and upper polynomials "
        "have different cells"])


def _face_onto_lattice(rec):
    # the face between the first two cells of the upper file moves to the
    # nearest point of the demo's lattice (512 points on [0, 3]), and
    # their anchors with it: the upper file now marks a skeleton point the
    # lower one does not
    axis = np.linspace(0.0, 3.0, 512)
    assert rec["hi"][0, 0] == rec["lo"][1, 0]
    rec["hi"][0, 0] = rec["lo"][1, 0] = axis[np.argmin(abs(axis - rec["hi"][0, 0]))]


def test_verify_keeps_what_it_found_before_an_inconsistency(demo_dir, tmp_path, capsys):
    copy = _tampered(demo_dir, tmp_path, "global_upper.npy", _face_onto_lattice)
    assert verify(copy) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verify: MISMATCH global_upper.npy: cell 0 has a jet that does not solve its equation",
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
        rec = np.load(copy / "stage1.npy")
        j_cell = cert["stages"][0]["j_cells"][-1][-1]
        assert j_cell == {"lo": rec["lo"][-1].tolist(), "hi": rec["hi"][-1].tolist()}
        assert rec["hi"][-1].tolist() == cert["problem"]["box_hi"]
        shift = fraction * (rec["hi"][-1, 0] - rec["lo"][-1, 0])
        for row in (rec["lo"][-1], rec["hi"][-1], j_cell["lo"], j_cell["hi"]):
            row[0] += shift
        np.save(copy / "stage1.npy", rec)
        (copy / "certificate.json").write_text(json.dumps(cert))
        assert _verify_quietly(copy, capsys) == (2, [
            f"verify: artifact inconsistency: stage1.npy: cell {len(rec) - 1} "
            f"{[rec['lo'][-1].tolist(), rec['hi'][-1].tolist()]} reaches outside the box"])


@pytest.mark.parametrize("bound", [np.inf, -np.inf])
def test_verify_names_the_file_of_an_infinite_face(demo_dir, tmp_path, capsys, bound):
    # an infinite upper face is rejected as the file is read: it never
    # reaches Tiling.index_of, whose integer cast of it warns
    def infinite_face(rec):
        rec["hi"][-1, 0] = bound

    copy = _tampered(demo_dir, tmp_path, "stage1.npy", infinite_face)
    assert _verify_quietly(copy, capsys) == (2, [
        "verify: artifact inconsistency: stage1.npy: cell bounds must be finite, "
        "not NaN or +-inf"])


def _npy(rec, allow_pickle=False) -> bytes:
    """The bytes of a .npy file of an array."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, rec, allow_pickle=allow_pickle)
    return buf.getvalue()


def _zipped(raw: bytes) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("poly.npy", raw)
    return buf.getvalue()


def _retyped(rec, dtype) -> np.ndarray:
    """rec's values in records of another dtype with the same field shapes."""
    out = np.zeros(len(rec), dtype)
    for key in out.dtype.names:
        out[key] = rec[key if key in rec.dtype.names else "coeffs"]
    return out


def _with_nan_bound(rec) -> np.ndarray:
    rec = rec.copy()
    rec["lo"][1, 0] = np.nan
    return rec


_NOT_RECORDS = "not a 1-D array of polynomial records"
_F8_FIELDS = [("lo", (1,)), ("hi", (1,)), ("coeffs", (1, 2))]


@pytest.mark.parametrize("malformed, message", [
    (lambda raw, rec: b"", "EOF: reading magic string"),
    (lambda raw, rec: raw[:-8], "Failed to read all data for array"),
    (lambda raw, rec: _zipped(raw), "the magic string is not correct"),
    (lambda raw, rec: _npy(np.array([rec], dtype=object), allow_pickle=True),
     "Object arrays cannot be loaded when allow_pickle=False"),
    (lambda raw, rec: _npy(_retyped(rec, [(k, "<f4", s) for k, s in _F8_FIELDS])),
     _NOT_RECORDS),
    (lambda raw, rec: _npy(_retyped(rec, [(k, ">f8", s) for k, s in _F8_FIELDS])),
     _NOT_RECORDS),
    (lambda raw, rec: _npy(_retyped(rec, [(k, "<f8", s) for k, s in _F8_FIELDS]
                                    + [("anchors", "<f8", (1, 2))])), _NOT_RECORDS),
    (lambda raw, rec: _npy(_retyped(rec, [("lo", "<f8", (1,)), ("hi", "<f8", (1,)),
                                          ("coefs", "<f8", (1, 2))])), _NOT_RECORDS),
    (lambda raw, rec: _npy(_retyped(rec, [("hi", "<f8", (1,)), ("lo", "<f8", (1,)),
                                          ("coeffs", "<f8", (1, 2))])), _NOT_RECORDS),
    (lambda raw, rec: _npy(rec.reshape(-1, 1)), _NOT_RECORDS),
    (lambda raw, rec: raw + b"\0", "trailing bytes after the array"),
    (lambda raw, rec: _npy(_with_nan_bound(rec)), "cell bounds must be finite"),
    (lambda raw, rec: _npy(_records_of(rec, 1, 1, 1)),
     "signature (space_dim, components, order): expected (1, 1, 1), found (1, 1, 0)"),
    (lambda raw, rec: _npy(np.zeros(0, _record_dtype(60, 1, 61))),
     "signature (space_dim, components, order): expected (1, 1, 1), found (60, 1, 1)"),
], ids=["empty", "truncated", "zip", "pickled", "float32", "big_endian", "extra_field",
        "renamed_field", "field_order", "2d_records", "trailing_bytes", "nan_bound",
        "foreign_signature", "sixty_dimensions"])
def test_verify_names_a_malformed_polynomial_file(demo_dir, tmp_path, capsys, malformed,
                                                  message):
    # whatever the file holds, verify reads it as exit 2 naming the file:
    # no traceback, nothing on stderr, no warning
    name = "stage1.npy"
    copy = tmp_path / "malformed"
    shutil.copytree(demo_dir, copy)
    raw = (copy / name).read_bytes()
    (copy / name).write_bytes(malformed(raw, np.load(copy / name)))
    code, lines = _verify_quietly(copy, capsys)
    assert code == 2 and len(lines) == 1, lines
    assert lines[0].startswith(f"verify: artifact inconsistency: {name}: {message}"), lines


@pytest.fixture(scope="module")
def seeded_demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("seeded_demo") / "out"
    assert main(["run", str(DEMOS / "manufactured_1d.spec"), "--gamma", "0.2",
                 "--stages", "3", "--seed", "5", "--out", str(out)]) == 0
    return out


def _byte_edit(raw: bytes, rng: np.random.Generator) -> bytes:
    """raw with one seeded edit: a bit flip, a truncation, an inserted
    token or a deleted run of bytes."""
    at = int(rng.integers(len(raw) + 1))
    kind = int(rng.integers(4))
    if kind == 0 and at < len(raw):
        return raw[:at] + bytes([raw[at] ^ (1 << int(rng.integers(8)))]) + raw[at + 1:]
    if kind == 1:
        return raw[:at]
    if kind == 2:
        tokens = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"-", b"0", b"1e999", b"nan",
                  b"\xff", b" ", b"\n", b"L", b"'"]
        return raw[:at] + tokens[int(rng.integers(len(tokens)))] + raw[at:]
    return raw[:at] + raw[at + 1 + int(rng.integers(16)):]


def test_verify_exits_0_or_2_on_single_byte_edits(seeded_demo_dir, tmp_path, capsys):
    # 200 seeded edits spread over every file of the demo's run directory:
    # each verify returns a documented code and raises nothing, also under
    # the suite's warnings as errors
    copy = tmp_path / "edited"
    shutil.copytree(seeded_demo_dir, copy)
    files = sorted(p for p in copy.iterdir() if p.is_file())
    originals = {p: p.read_bytes() for p in files}
    rng = np.random.default_rng(7)
    codes = []
    for trial in range(200):
        path = files[trial % len(files)]
        path.write_bytes(_byte_edit(originals[path], rng))
        try:
            codes.append(main(["verify", str(copy)]))
        finally:
            path.write_bytes(originals[path])
        assert codes[-1] in (0, 2), (path.name, trial)
    capsys.readouterr()
    assert 2 in codes


def _replace_header_brace(raw: bytes) -> bytes:
    # the closing brace of the header dict, which numpy's parser then meets
    # as an unterminated statement (tokenize.TokenError)
    end = raw.index(b"}")
    return raw[:end] + b" " + raw[end + 1:]


def _python2_header(raw: bytes) -> bytes:
    # a shape written as Python 2 wrote a long, "(5L,)": numpy reads it only
    # through its header filter, which warns
    head_len = int.from_bytes(raw[8:10], "little")
    header = raw[10:10 + head_len]
    shape = header[header.index(b"(") + 1:header.index(b",)")]
    new = header.replace(b"(" + shape + b",)", b"(" + shape + b"L,)", 1)
    assert new[-2:] == b" \n"
    new = new[:-2] + b"\n"
    return raw[:10] + new + raw[10 + head_len:]


@pytest.mark.parametrize("name, edit, message", [
    ("global_lower.npy", _replace_header_brace,
     "verify: artifact inconsistency: global_lower.npy: malformed .npy header: TokenError"),
    ("global_lower.npy", _python2_header,
     "verify: artifact inconsistency: global_lower.npy: malformed .npy header: UserWarning"),
    ("certificate.json", lambda raw: raw[:10] + b"\xff" + raw[11:],
     "verify: cannot read certificate: 'utf-8' codec can't decode byte 0xff"),
], ids=["npy_header_brace", "npy_python2_header", "certificate_not_utf8"])
def test_verify_exits_2_on_unparsable_bytes(seeded_demo_dir, tmp_path, capsys, name, edit,
                                            message):
    copy = tmp_path / "edited"
    shutil.copytree(seeded_demo_dir, copy)
    (copy / name).write_bytes(edit((copy / name).read_bytes()))
    code, lines = _verify_quietly(copy, capsys)
    assert code == 2 and len(lines) == 1 and lines[0].startswith(message), lines


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


@pytest.mark.parametrize("run, at, flag, want", [
    ("demo_dir", ("tiling", "radii", 0), True, 1.0),
    ("demo_dir", ("tiling", "i_cells", 0, "lo", 0), False, 0.0),
    ("demo_dir", ("stages", 0, "j_cells", 0, 0, "lo", 0), False, 0.0),
    ("run_2d", ("stages", 1, "j_cells", -1, -1, "hi", 1), True, 1.0),
], ids=["radius", "i_cell_face", "first_j_cell_face", "last_j_cell_face"])
def test_verify_takes_no_bool_for_a_float(request, tmp_path, capsys, run, at, flag, want):
    # True == 1.0 and False == 0.0: a bool in place of a float that equals
    # it is a mismatch all the same, in a list of radii and in the cells
    run = request.getfixturevalue(run)
    capsys.readouterr()  # what a fixture's run printed

    node, keys = json.loads((run / "certificate.json").read_text()), []
    for key in at:  # keys: at, with each -1 as the index verify names
        keys.append(len(node) - 1 if key == -1 else key)
        node = node[key]
    assert node == want and type(node) is float
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]

    def to_bool(cert):
        for key in at[:-1]:
            cert = cert[key]
        cert[at[-1]] = flag

    copy = _tampered(run, tmp_path, "certificate.json", to_bool)
    assert _verify_quietly(copy, capsys) == (2, [
        f"verify: MISMATCH {path}: stored {flag}, recomputed {want}", "verify: FAILED"])


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
    u, v = (read_poly_json(demo_dir / f"global_{side}.npy") for side in ("lower", "upper"))
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

@pytest.mark.parametrize("name", ["global_lower.npy", "stage1.npy"])
def test_verify_rejects_every_changed_polynomial_field(demo_dir, tmp_path, capsys, name):
    # the polynomial files' sweep: the first and the last entry along every
    # axis of each record field (the first and last cell's bounds and
    # coefficients), changed once as in the certificate sweep, must fail
    # verify
    rec = np.load(demo_dir / name)
    run = tmp_path / "sweep"
    shutil.copytree(demo_dir, run)
    paths = [(key, *at) for key in rec.dtype.names
             for at in itertools.product(*({0, k - 1} for k in rec[key].shape))]
    accepted = []
    for at in paths:
        doc = rec.copy()
        doc[at[0]][at[1:]] = _changed(float(doc[at[0]][at[1:]]))
        np.save(run / name, doc)
        if verify(run) != 2:
            accepted.append(at)
    capsys.readouterr()
    # but the value coefficients: 0.0 in every cell of the demo, where F's
    # derivative in u vanishes, so at 1e-6 the jet still solves its cell's
    # equation within the solver's tolerance (F moves by 1e-18) and every
    # certificate recomputed from it holds. verify, which never re-solves,
    # takes each jet that solves its equation in its box
    last = len(rec) - 1
    assert accepted == [("coeffs", 0, 0, 0), ("coeffs", last, 0, 0)]
    assert len(paths) == 8


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


def _tamper_cells(data, rec) -> np.ndarray:
    """One drawn structural tamper of a polynomial file's records: a face
    moved by a drawn amount, an end cell pushed out of the box, a bound set
    to +-inf or NaN, a cell's lo and hi swapped, or a record dropped,
    duplicated or swapped with another."""
    rec = rec.copy()
    cells, d = len(rec), data.draw(st.integers(0, rec["lo"].shape[1] - 1))
    kind = data.draw(st.sampled_from(["face", "push", "bound", "flip", "drop", "duplicate",
                                      "swap"]))
    if kind == "face":
        # every bound on the face moves, so the cells on both sides keep meeting
        face = data.draw(st.sampled_from(sorted({float(x) for side in ("lo", "hi")
                                                 for x in rec[side][:, d]})))
        moved = face + data.draw(st.floats(-4.0, 4.0))
        for side in ("lo", "hi"):
            rec[side][rec[side][:, d] == face, d] = moved
    elif kind == "push":
        c = data.draw(st.sampled_from([0, cells - 1]))
        shift = data.draw(st.floats(0.0, 4.0)) * (-1.0 if c == 0 else 1.0)
        for side in ("lo", "hi"):
            rec[side][c, d] += shift
    elif kind == "bound":
        side, c = data.draw(st.sampled_from(["lo", "hi"])), data.draw(st.integers(0, cells - 1))
        rec[side][c, d] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    elif kind == "flip":
        c = data.draw(st.integers(0, cells - 1))
        rec["lo"][c], rec["hi"][c] = rec["hi"][c].copy(), rec["lo"][c].copy()
    else:  # a record is one cell's entries
        i, j = data.draw(st.integers(0, cells - 1)), data.draw(st.integers(0, cells - 1))
        if kind == "drop":
            rec = np.delete(rec, i)
        elif kind == "duplicate":
            rec = np.insert(rec, j, rec[i])
        else:
            rec[[i, j]] = rec[[j, i]]
    return rec


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
    name = "stage1.npy"
    original = np.load(demo_dir / name)
    rec = _tamper_cells(data, original)
    np.save(tampered_cells_dir / name, rec)
    same = all(np.array_equal(rec[side], original[side]) for side in ("lo", "hi"))
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = verify(tampered_cells_dir)
    lines = out.getvalue().splitlines()
    assert code == (0 if same else 2), lines
    assert lines and all(line.startswith("verify: ") for line in lines), lines
    assert err.getvalue() == ""


def test_verify_rejects_an_exponent_beyond_the_bound(demo_dir, tmp_path, capsys):
    # used to exit 2 with "artifact inconsistency: int too large to convert
    # to float", from numpy's power; now the parser names the literal
    def huge(cert):
        cert["problem"]["F"][0] = cert["problem"]["F"][0].replace("^3", "^1" + "0" * 400)

    assert _verify_quietly(_tampered(demo_dir, tmp_path, "certificate.json", huge),
                           capsys) == (2, [
        "verify: artifact inconsistency: exponent beyond 2^53 = 9007199254740992 "
        "(line 1, column 21)"])


def test_verify_rejects_too_deep_nesting(demo_dir, tmp_path, capsys):
    # each used to end in a RecursionError traceback (exit 1): an operator
    # nested past the parser's bound, and a JSON array nested past what
    # json.loads decodes, found in a key appended to the document
    def wrap(cert):
        cert["problem"]["F"][0] = "(" * 300 + cert["problem"]["F"][0] + ")" * 300

    assert _verify_quietly(_tampered(demo_dir, tmp_path / "F", "certificate.json", wrap),
                           capsys) == (2, [
        "verify: artifact inconsistency: expression nested deeper than 100 levels "
        "(line 1, column 101)"])
    copy = tmp_path / "deep"
    shutil.copytree(demo_dir, copy)
    text = (copy / "certificate.json").read_text().rstrip()
    depth = 100_000
    (copy / "certificate.json").write_text(text[:-1] + ',"zz":' + "[" * depth + "]" * depth + "}")
    code, lines = _verify_quietly(copy, capsys)
    assert code == 2 and lines == ["verify: cannot read certificate: maximum recursion depth "
                                   "exceeded while decoding a JSON array from a unicode string"]


def test_verify_rejects_missing_or_foreign_dir(demo_dir, tmp_path, capsys):
    assert verify(tmp_path / "nothing_here") == 2
    assert "cannot read certificate" in capsys.readouterr().out
    # 2: the polynomials in JSON files; 3: a directory and CSV files per stage
    for schema in (1, 2, 3, 99):
        (tmp_path / "certificate.json").write_text(f'{{"schema": {schema}}}')
        assert verify(tmp_path) == 2
        assert f"unsupported schema {schema}" in capsys.readouterr().out
    # 4: the same layout, but its values took numpy's dispatch-dependent
    # powers; one line, not a list of MISMATCH lines
    def schema4(cert):
        cert["schema"] = 4

    assert _verify_quietly(_tampered(demo_dir, tmp_path / "four", "certificate.json", schema4),
                           capsys) == (2, ["verify: unsupported schema 4"])


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
    total, solver = re.search(r"That is ([\d,]+) lines in \w+ modules; `solver` "
                              r"\(([\d,]+)\s+lines\)", table).groups()
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


def test_checker_completes_nothing():
    # the certificates read rows at the off-skeleton points: checker.py
    # imports nothing that completes a function across a skeleton, nor the
    # GridFunction such a completion makes
    tree = ast.parse((SRC / "ordercomplete" / "checker.py").read_text())
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert "GridDomain" in names
    assert not names & {"complete", "skeleton_fill", "normalize", "GridFunction"}


def test_dataclasses_generate_only_what_is_used():
    # each method a dataclass generates is an exec when its module loads, and
    # a docstring it lacks is built from inspect.signature: every dataclass
    # has a docstring and fields of its own (a subclass without any inherits
    # its base's methods), no __repr__ (no program prints one), and no
    # __init__ where the class writes its own
    for path in sorted((SRC / "ordercomplete").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            deco = next((d for d in getattr(node, "decorator_list", ())
                         if ast.unparse(d).startswith("dataclass")), None)
            if deco is None:
                continue
            where = f"{path.name}: {node.name}"
            options = {k.arg: k.value.value for k in getattr(deco, "keywords", ())}
            assert ast.get_docstring(node), f"{where} has no docstring"
            assert any(isinstance(b, ast.AnnAssign) for b in node.body), \
                f"{where} declares no field"
            assert options.get("repr") is False, f"{where} generates __repr__"
            if any(getattr(b, "name", None) == "__init__" for b in node.body):
                assert options.get("init") is False, f"{where} generates an unused __init__"


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


def test_run_and_verify_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma; neither command, run as
    # `python -m ordercomplete.cli`, loads it
    out = tmp_path / "out"
    for argv in (["run", str(DEMOS / "manufactured_1d.spec"), "--gamma", "0.2", "--stages",
                  "2", "--out", str(out)], ["verify", str(out)]):
        proc = subprocess.run(
            [sys.executable, "-c", "import runpy, sys\n"
             "sys.argv[1:] = sys.argv[2:]\n"
             "try:\n"
             "    runpy.run_module('ordercomplete.cli', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as e:\n"
             "    print('exit', e.code, 'numpy.ma' in sys.modules)\n", "-", *argv],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit 0 False", proc.stdout


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the CLI has loaded no scipy module, and no numpy.random either, which
    # the package loads only when it draws (see solver.jet_solve); nor
    # solver, which only `run` imports
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ordercomplete.cli; print(sorted(m for m in "
         "sys.modules if m.startswith(('scipy', 'numpy.random', 'ordercomplete.solver'))))"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_runs_with_solver_blocked(demo_dir):
    # `python -m ordercomplete.cli verify` with the construction module
    # unimportable: verify neither needs nor loads it
    proc = subprocess.run(
        [sys.executable, "-c", "import runpy, sys\n"
         "sys.modules['ordercomplete.solver'] = None\n"
         "sys.argv[1:] = ['verify', sys.argv[1]]\n"
         "runpy.run_module('ordercomplete.cli', run_name='__main__', alter_sys=True)\n",
         str(demo_dir)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all certificates reproduce; verdict pass" in proc.stdout


# ---------------------------------------------------------------------------
# one verdict across numpy's dispatch levels
#
# NPY_DISABLE_CPU_FEATURES, read once as numpy loads, makes a process use
# numpy's AVX2 loops on a host with AVX-512. On a host without AVX-512 both
# processes of each test below dispatch alike, so the tests have no power
# there (numpy reports the features it cannot disable with an ImportWarning,
# which Python ignores by default); they are not skipped.

_AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# the first pde2d_coarse problem of perfbench's workload seed 17, and a
# third-order polynomial problem, whose samples take _taylor_sum's cube
_DISPATCH_SPECS = {
    "pde2d_coarse_p00_seed17": ("""\
n = 2
K = 1
m = 1
box.lo = 0 0
box.hi = 1 1
grid = 33
F1 = u[1,(1,0)] + u[1,(0,1)] + u[1,(0,0)]^3
f1 = 0.995*0.997*cos(0.997*x1 + 0.019) + 0.998*1.004*cos(1.004*x2 + 0.012) + \
(0.995*sin(0.997*x1 + 0.019) + 0.998*sin(1.004*x2 + 0.012))^3
exact1 = 0.995*sin(0.997*x1 + 0.019) + 0.998*sin(1.004*x2 + 0.012)
""", "870007314"),
    "third_order_polynomial": ("""\
n = 1
K = 1
m = 3
box.lo = 0
box.hi = 1
grid = 256
F1 = u[1,(3)] + u[1,(0)]
f1 = 2.4*x1 + 0.1*x1^4
exact1 = 0.1*x1^4
""", "17"),
}


def _cli_child(argv, avx2_only):
    env = {k: v for k, v in _child_env().items() if k != "NPY_DISABLE_CPU_FEATURES"}
    return subprocess.run([sys.executable, "-m", "ordercomplete.cli", *argv],
                          capture_output=True, text=True,
                          env={**env, **(_AVX2_ONLY if avx2_only else {})})


@pytest.mark.parametrize("name", sorted(_DISPATCH_SPECS))
def test_run_on_one_dispatch_level_verifies_on_the_other(tmp_path, name):
    # run under AVX2 loops and verify under the host's own, then the
    # reverse: every certificate reproduces bit for bit. Before every
    # integer power went through one fixed chain of products, both specs
    # failed with exit 2 in both directions on an AVX-512 host (MISMATCH
    # lines on stored minima that differed in their last ulps)
    text, seed = _DISPATCH_SPECS[name]
    spec = _write(tmp_path, text)
    for avx2_only in (True, False):
        out = tmp_path / f"out_{avx2_only}"
        proc = _cli_child(["run", spec, "--gamma", "0.2", "--stages", "3", "--seed", seed,
                           "--no-samples", "--out", str(out)], avx2_only)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        proc = _cli_child(["verify", str(out)], not avx2_only)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all certificates reproduce; verdict pass" in proc.stdout


def _reference_pow(b: float, k: int) -> float:
    """b**k by square-and-multiply over the bits of |k| from the top, in
    Python floats (IEEE products); 1 / that for k <= -2."""
    if k == 0:
        return 1.0
    n = abs(k)
    half = _reference_pow(b, n // 2) if n > 1 else None
    r = b if n == 1 else half * half * b if n % 2 else half * half
    if k > 0:
        return r
    return 1.0 / r if r != 0.0 else math.copysign(math.inf, r)


_CHAIN_KS = (*range(-12, 13), 31, -31, 64, 1000, 2000, -2001)

_CHAIN_CHILD = """\
import hashlib, sys
import numpy as np
from ordercomplete.intervals import int_pow
from ordercomplete.jets import MultiIndexSet, _taylor_sum
b = np.frombuffer(sys.stdin.buffer.read())
with np.errstate(all="ignore"):
    powers = np.stack([int_pow(b, k) for k in {ks}])
    # the Taylor sum of a cubic alone: 0 + (6 / 3!) dx^3 = 0 + dx^3
    taylor = _taylor_sum(MultiIndexSet(1, 3), (0,), b[:, None], np.array([0.0, 0, 0, 6]))
print(hashlib.sha256(powers.tobytes()).hexdigest(), hashlib.sha256(taylor.tobytes()).hexdigest())
"""


def test_int_pow_is_the_reference_chain_on_every_dispatch_level():
    # int_pow, and _taylor_sum's cube through it, equal a pure-Python chain
    # of IEEE products bit for bit, in a child at each dispatch level;
    # numpy's own b**3 differed from b*b*b on about 3% of such bases under
    # AVX-512
    import hashlib

    rng = np.random.default_rng(29)
    b = np.concatenate([rng.uniform(-3.0, 3.0, 600), rng.uniform(-1e-307, 1e-307, 50),
                        5e-324 * rng.integers(-9, 10, 50), [0.0, -0.0, 1e200, -1e-200]])
    reference = np.array([[_reference_pow(float(x), k) for x in b] for k in _CHAIN_KS])
    expect = (hashlib.sha256(reference.tobytes()).hexdigest(),
              hashlib.sha256((0.0 + reference[_CHAIN_KS.index(3)]).tobytes()).hexdigest())
    for avx2_only in (True, False):
        env = {k: v for k, v in _child_env().items() if k != "NPY_DISABLE_CPU_FEATURES"}
        proc = subprocess.run(
            [sys.executable, "-c", _CHAIN_CHILD.format(ks=_CHAIN_KS)], input=b.tobytes(),
            capture_output=True, env={**env, **(_AVX2_ONLY if avx2_only else {})})
        assert proc.returncode == 0, proc.stderr.decode()
        assert tuple(proc.stdout.decode().split()) == expect, avx2_only


def test_array_pow_faults_where_it_did_with_numpy_power():
    # the fault masks of x**k on the special bases are those of numpy's
    # power, which _array_pow used before: none for k > 0, a non-finite base
    # for k = 0, and a zero one too for k < 0; so are the values, bit for bit
    # (numpy's power is exact on these bases)
    from ordercomplete.expr import _array_pow

    b = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.0, 1.5])
    special = ~np.isfinite(b)
    for k in range(-3, 6):
        with np.errstate(all="ignore"):
            value, faulted = _array_pow(b, k)
            want = b**k
        assert value.tobytes() == want.tobytes(), k
        expected = False if k > 0 else special | ((b == 0.0) & (k < 0))
        assert np.array_equal(faulted, expected), k


# every array power in the package that does not go through intervals.int_pow,
# by module and source text, and why it may stay dispatch-dependent
_POWER_ALLOWLIST = {
    ("intervals", "b**k"): "int_pow itself for k in -1..2: numpy's reciprocal, ones, "
                           "copy and square, all correctly rounded",
    ("intervals", "base.lo**k"): "pow_int's outward-stepped endpoints, unioned with int_pow",
    ("intervals", "base.hi**k"): "pow_int's outward-stepped endpoints, unioned with int_pow",
    ("jets", "2 ** i"): "a Python int, the length of a marker string",
    ("solver", "2 ** gen.shape[2]"): "a Python int, the corner count of a cell",
    ("pde", "uniforms ** (1.0 / d)"): "the probe's radii, which verify takes as stored "
                                      "(ROADMAP item 31)",
}


def test_every_array_power_is_int_pow_or_allowed():
    # numpy's power takes another code path on another CPU, so a run
    # directory verifies everywhere only if every power in what verify
    # recomputes is int_pow's chain: a new ** or np.power, np.float_power or
    # math.pow call in src/ordercomplete fails here, named by file and line
    found = {}
    for path in sorted((SRC / "ordercomplete").glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                pass
            elif not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and ast.unparse(node.func) in ("np.power", "np.float_power", "math.pow",
                                                     "numpy.power", "numpy.float_power")):
                continue
            found.setdefault((path.stem, ast.get_source_segment(source, node)),
                             f"{path.name}:{node.lineno}")
    unlisted = {key: where for key, where in found.items() if key not in _POWER_ALLOWLIST}
    assert not unlisted, unlisted
    assert set(found) == set(_POWER_ALLOWLIST), set(_POWER_ALLOWLIST) - set(found)
