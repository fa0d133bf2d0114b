"""Problem-file loading, pipeline exit codes, artifact layout, determinism,
and independent re-verification."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ordercomplete.cli import RunConfig, load_spec, main, run_pipeline, verify
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
    assert not (out / "certificate.json").exists()


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
    assert "MISMATCH stage2.eq1.lower_slack" in out


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
    assert "MISMATCH oc.bands[u1_a0].chain_ok" in out
    assert "MISMATCH oc.bands[u1_a0].first_violation" in out


def test_verify_detects_flipped_vacuous_flag(run_dir, tmp_path, capsys):
    copy = tmp_path / "tampered_vacuous"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    assert cert["stages"][0]["eq2"]["vacuous"] is True
    cert["stages"][0]["eq2"]["vacuous"] = False
    (copy / "certificate.json").write_text(json.dumps(cert))
    assert verify(copy) == 2
    assert "MISMATCH stage1.eq2.vacuous" in capsys.readouterr().out


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
    assert f"MISMATCH {field}: stored value differs" in out
    assert "verify: FAILED" in out


def _shift_i_jet(cert, stage):
    cert["stages"][stage]["i_jets"][0][0] += 0.5


def _move_i_jet_along_its_equation(cert, stage):
    # u' + u^3 keeps its value while u moves by 3, far outside the bands
    row = cert["stages"][stage]["i_jets"][0]
    u, du = row
    row[:] = [u + 3.0, du + u**3 - (u + 3.0) ** 3]


@pytest.mark.parametrize("tamper, stage, message", [
    (_shift_i_jet, 0, "stage1.i_jets: anchor jet 0 does not solve its equation"),
    (_shift_i_jet, 1, "stage2.i_jets: anchor jet 0 does not solve its equation"),
    (_move_i_jet_along_its_equation, 1,
     "stage2.i_jets: anchor jet 0 lies outside the previous bands' inner box"),
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
     _overflowing_dimension, _long_int_eps, _long_int_gamma,
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


def test_verify_detects_overlapping_j_cells(run_dir, tmp_path, capsys):
    # translating a J-cell half its width into its neighbour keeps the volume
    # sum, so only the overlap test can reject the tiling
    copy = tmp_path / "tampered_tiling"
    shutil.copytree(run_dir, copy)
    cert = json.loads((copy / "certificate.json").read_text())
    poly = json.loads((copy / "stage1" / "poly.json").read_text())
    shift = 0.5 * (poly["hi"][0][0] - poly["lo"][0][0])
    assert poly["hi"][0] in poly["lo"][1:]  # a neighbour
    j_cell = cert["stages"][0]["j_cells"][0][0]
    for row in (poly["lo"][0], poly["hi"][0], j_cell["lo"], j_cell["hi"]):
        row[0] += shift
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
    # the face between the first two cells of the upper file moves by far
    # less than the lattice's snapping tolerance: same skeleton, same samples
    assert poly["hi"][0] == poly["lo"][1]
    poly["hi"][0] = poly["lo"][1] = [poly["hi"][0][0] * (1 + 1e-12)]


@pytest.mark.parametrize("name, tamper, message", [
    ("global_upper.json", _nudge_upper_face, "global_pair: the upper polynomial file's cells"),
], ids=["nudged_upper_face"])
def test_verify_compares_global_pair_cells(demo_dir, tmp_path, capsys, name, tamper, message):
    # no certificate reads the upper file's cells: verify compares them
    # exactly with the cells of the lower polynomial file
    copy = _tampered(demo_dir, tmp_path, name, tamper)
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert f"MISMATCH {message}" in out
    assert "verify: FAILED" in out


def _double_radii(cert):
    # every derived block that reads the radii is recomputed to match them
    from ordercomplete.solver import band_tolerance, eq3_certificate

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
    assert "MISMATCH tiling.radii: radius 0 is 2.0, outside (0, eps_max=1.0]" in out
    assert "verify: FAILED" in out


def _shift_band_row(cert):
    # within every stored certificate's relative tolerance of 1e-9
    s = cert["stages"][0]
    for key in ("band_lo", "band_hi"):
        s[key][0] = [v + 1e-12 * max(1.0, abs(v)) for v in s[key][0]]


def test_verify_recomputes_the_bands(demo_dir, tmp_path, capsys):
    copy = _tampered(demo_dir, tmp_path, "certificate.json", _shift_band_row)
    assert verify(copy) == 2
    out = capsys.readouterr().out
    assert "MISMATCH stage1.band_lo: stored bands differ" in out
    assert "MISMATCH stage1.band_hi: stored bands differ" in out


def test_verify_recomputes_global_pair_at_gamma(demo_dir, tmp_path, capsys):
    # a pair certified only at twice gamma, its stored margins recomputed
    # at that eps: verify certifies the pair at config.gamma, as run does
    from ordercomplete.cli import _cert_dict
    from ordercomplete.grids import GridDomain
    from ordercomplete.jets import read_poly_json
    from ordercomplete.solver import apeq_certificate

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


def test_verify_rejects_missing_or_foreign_dir(tmp_path, capsys):
    assert verify(tmp_path / "nothing_here") == 2
    assert "cannot read certificate" in capsys.readouterr().out
    for schema in (1, 99):
        (tmp_path / "certificate.json").write_text(f'{{"schema": {schema}}}')
        assert verify(tmp_path) == 2
        assert f"unsupported schema {schema}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# installed entry point


def test_package_exports_resolve():
    # every exported name resolves, the lazily loaded CLI names included,
    # so a renamed or removed function cannot linger in __all__
    import ordercomplete

    assert len(set(ordercomplete.__all__)) == len(ordercomplete.__all__)
    for name in ordercomplete.__all__:
        assert getattr(ordercomplete, name) is not None, name
    assert set(ordercomplete.__all__) <= set(dir(ordercomplete))


def _child_env():
    # the child finds the package where this test process does, installed
    # or not
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


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
    # the CLI has loaded no scipy module
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ordercomplete.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[]"
