"""Batch front end: parse problem files, orchestrate assumption probes,
the global pair, the refinement scheme, and the analysis passes, then emit
certificates and data files.

Artifacts are deterministic for a fixed config and seed (no timestamps,
sorted keys, repr floats) and every file is written atomically via a
temporary sibling and rename. `verify` re-derives every stored inequality
from the serialized polynomials and bands alone; it never re-solves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as ex
from .analysis import IntervalSequence, compare_reference, nested_limit_check
from .grids import GridDomain, GridFunction, OrderInterval, order_convergence_check, write_csv
from .jets import Cell, TilingError, _classify_grid, assemble, read_poly_json, sample_component, write_poly_json
from .pde import PdeSystem, apply_operator, check_assumption_interior
from .solver import (
    ConstructionError,
    _band_functions,
    band_tolerance,
    global_pair,
    run_scheme,
)

_SCHEMA = 1


# ---------------------------------------------------------------------------
# problem-spec files


def load_spec(path) -> tuple[PdeSystem, list[ex.Expr] | None, int | None]:
    """Parse a key-value problem file into a validated system.

    Returns (system, exact-solution expressions or None, grid resolution
    from the file or None). Diagnostics name the offending key.
    """
    text = Path(path).read_text()
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()

    def need(key: str) -> str:
        if key not in pairs:
            raise ValueError(f"missing key {key!r}")
        return pairs[key]

    def as_int(key: str) -> int:
        try:
            return int(need(key))
        except ValueError as e:
            raise ValueError(f"key {key!r}: not an integer: {pairs[key]!r}") from e

    def as_floats(key: str) -> list[float]:
        import re

        parts = [p for p in re.split(r"[,\s]+", need(key)) if p]
        try:
            return [float(p) for p in parts]
        except ValueError as e:
            raise ValueError(f"key {key!r}: not numbers: {pairs[key]!r}") from e

    n = as_int("n")
    K = as_int("K")
    m = as_int("m")
    box_lo = as_floats("box.lo")
    box_hi = as_floats("box.hi")
    if len(box_lo) != n or len(box_hi) != n:
        raise ValueError("keys 'box.lo'/'box.hi' must each hold n numbers")
    grid = as_int("grid") if "grid" in pairs else None

    def parse_expr(key: str, signature) -> ex.Expr:
        try:
            return ex.parse(need(key), signature)
        except (ex.ParseError, ex.SignatureError) as e:
            raise ValueError(f"key {key!r}: {e}") from e

    F = [parse_expr(f"F{j}", (n, K, m)) for j in range(1, K + 1)]
    f = []
    for j in range(1, K + 1):
        e = parse_expr(f"f{j}", (n, K, m))
        if ex.has_jet_vars(e):
            raise ValueError(f"key 'f{j}': right-hand side must not use jet variables")
        f.append(e)
    exact = None
    if any(f"exact{j}" in pairs for j in range(1, K + 1)):
        exact = []
        for j in range(1, K + 1):
            e = parse_expr(f"exact{j}", (n, K, m))
            if ex.has_jet_vars(e):
                raise ValueError(
                    f"key 'exact{j}': reference solution must not use jet variables"
                )
            exact.append(e)
    system = PdeSystem(n, K, m, F, f, box_lo, box_hi)
    return system, exact, grid


@dataclass(frozen=True)
class RunConfig:
    spec: str
    gamma: float
    stages: int
    grid: int | None
    out: str
    eps_max: float = 1.0
    seed: int = 0
    skip_assumption_check: bool = False
    emit_samples: bool = True

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.stages < 1:
            raise ValueError("stages must be at least 1")
        if self.grid is not None and self.grid < 8:
            raise ValueError("grid resolution must be at least 8 per axis")


# ---------------------------------------------------------------------------
# serialization helpers


def _write_atomic_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv_atomic(gf: GridFunction, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_csv(gf, tmp)
    os.replace(tmp, path)


def _num(x: float) -> float | None:
    """Map non-finite sentinel margins to null for strict JSON."""
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return None
    return x


def _unnum(x) -> float:
    return float("inf") if x is None else float(x)


def _var_tag(i: int, alpha: tuple[int, ...]) -> str:
    return f"u{i}_a" + "_".join(str(int(k)) for k in alpha)


def _oc_dict(c) -> dict:
    return {
        "chain_ok": bool(c.chain_ok),
        "first_violation": (
            None if c.first_violation is None
            else [c.first_violation[0], c.first_violation[1], float(c.first_violation[2])]
        ),
        "sup_gap": float(c.sup_gap),
        "inf_gap": float(c.inf_gap),
        "tol": float(c.tol),
        "passed": bool(c.passed),
    }


def _cells_list(cells) -> list[dict]:
    return [{"lo": [float(v) for v in c.lo], "hi": [float(v) for v in c.hi]}
            for c in cells]


def _floats2d(arr: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(arr)]


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(cfg: RunConfig) -> int:
    """Run the full pipeline and write artifacts; returns the exit code.

    0 = all certificates pass, 2 = a certificate failed, 3 = the
    construction itself failed (including unsupported assumptions).
    """
    try:
        system, exact, grid_file = load_spec(cfg.spec)
    except (OSError, ValueError) as e:
        print(f"spec error: {e}")
        return 3
    res = cfg.grid if cfg.grid is not None else grid_file
    if res is None:
        print("spec error: no grid resolution (file key 'grid' or --grid)")
        return 3
    if res < 8:
        print("spec error: grid resolution must be at least 8 per axis")
        return 3
    domain = GridDomain(system.box_lo, system.box_hi, (res,) * system.n)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    assumption_block: dict = {"checked": not cfg.skip_assumption_check}
    # a numeric fault while constructing is a construction failure too
    try:
        if not cfg.skip_assumption_check:
            center = 0.5 * (system.box_lo + system.box_hi)
            trial = np.stack(
                [np.full(system.unknown_count, -10.0),
                 np.full(system.unknown_count, 10.0)], axis=1
            )
            ev = check_assumption_interior(
                system, center, trial, rng=np.random.default_rng(cfg.seed)
            )
            assumption_block["interior"] = {
                "supported": bool(ev.supported),
                "witnessed_radius": _num(ev.witnessed_radius),
                "margin_min": _num(ev.margin_min),
                "directions": ev.directions,
                "samples_used": ev.samples_used,
                "r_min": ev.r_min,
                "note": ev.note,
            }
            if not ev.supported:
                print(
                    "construction failure: interior assumption unsupported at the "
                    f"box center (directional margin {ev.margin_min:.3e}); "
                    "the data point is not evidenced to lie inside the operator's "
                    "image over the trial jet box"
                )
                return 3
        gp = global_pair(system, domain, eps=cfg.gamma,
                         rng=np.random.default_rng(cfg.seed))
        scheme = run_scheme(system, domain, cfg.gamma, cfg.stages,
                            eps_max=cfg.eps_max, seed=cfg.seed)
    except (ConstructionError, TilingError, ex.EvalDomainError) as e:
        print(f"construction failure: {e}")
        return 3

    assumption_block["openness_radii"] = [float(r) for r in scheme.tiling.radii]
    assumption_block["note"] = "sampling evidence; not a proof"

    final_dom = scheme.domain
    fv = system.flat_vars()

    # analysis blocks (diagnostic; never gate the verdict)
    steps = [tuple(OrderInterval(lo, hi) for lo, hi in bands)
             for bands in scheme.bands_by_stage]
    try:
        nested = nested_limit_check(IntervalSequence(steps), tol=1e-3)
        nested_block: dict = {
            "tol": nested.tol,
            "components": [
                {"variable": _var_tag(*fv[c]),
                 "verdict": comp.verdict,
                 "max_final_width": _num(comp.max_final_width)}
                for c, comp in enumerate(nested.components)
            ],
        }
    except ValueError as e:
        nested_block = {"error": str(e)}
    reference_block = None
    if exact is not None:
        ref = compare_reference(scheme, exact)
        reference_block = {
            "max_distance": float(ref.max_distance),
            "per_stage": [
                {_var_tag(*v): float(d) for v, d in dists.items()}
                for dists in ref.distances
            ],
        }

    # artifacts
    write_poly_json(gp.lower, out / "global_lower.json")
    write_poly_json(gp.upper, out / "global_upper.json")
    stage_blocks = []
    for st, tv, bands in zip(scheme.stages, scheme.tv_by_stage, scheme.bands_by_stage):
        sdir = out / f"stage{st.n}"
        sdir.mkdir(exist_ok=True)
        write_poly_json(st.v, sdir / "poly.json")
        stage_blocks.append({
            "n": st.n,
            "file": f"stage{st.n}/poly.json",
            "eq1": {"passed": st.eq1.passed,
                    "lower_slack": _num(st.eq1.lower_slack),
                    "upper_slack": _num(st.eq1.upper_slack)},
            "eq2": {"passed": st.eq2.passed, "vacuous": st.eq2.vacuous,
                    "outer_lower": _num(st.eq2.outer_lower),
                    "outer_upper": _num(st.eq2.outer_upper),
                    "inner_lower": _num(st.eq2.inner_lower),
                    "inner_upper": _num(st.eq2.inner_upper)},
            "eq3": {"passed": st.eq3.passed,
                    "max_ratio": _num(st.eq3.max_ratio),
                    "widths": [list(w) for w in st.eq3.widths]},
            "band_lo": _floats2d(st.band_lo),
            "band_hi": _floats2d(st.band_hi),
            "i_jets": _floats2d(st.i_jets),
            "j_cells": [_cells_list(cs) for cs in st.j_cells],
        })
        if cfg.emit_samples:
            for j in range(system.K):
                _write_csv_atomic(tv[j], sdir / f"tv_u{j + 1}.csv")
            for k, (i, a) in enumerate(fv):
                tag = _var_tag(i, a)
                _write_csv_atomic(sample_component(st.v, i, a, final_dom),
                                  sdir / f"d_{tag}.csv")
                _write_csv_atomic(bands[k][0], sdir / f"lo_{tag}.csv")
                _write_csv_atomic(bands[k][1], sdir / f"hi_{tag}.csv")
    if cfg.emit_samples:
        for j in range(system.K):
            _write_csv_atomic(scheme.f_samples[j], out / f"f{j + 1}.csv")

    code = 0 if (gp.certificate.passed and scheme.verdict) else 2
    cert = {
        "schema": _SCHEMA,
        "config": {
            "gamma": float(cfg.gamma),
            "stages": int(cfg.stages),
            "grid": [int(res)] * system.n,
            "eps_max": float(cfg.eps_max),
            "seed": int(cfg.seed),
            "eps_global": float(cfg.gamma),
            "band_tol": band_tolerance(scheme.tiling.radii, scheme.N),
        },
        "problem": {
            "n": system.n, "K": system.K, "m": system.m,
            "box_lo": [float(v) for v in system.box_lo],
            "box_hi": [float(v) for v in system.box_hi],
            "F": [ex.render(e) for e in system.F],
            "f": [ex.render(e) for e in system.f],
            "exact": None if exact is None else [ex.render(e) for e in exact],
        },
        "assumption": assumption_block,
        "global_pair": {
            "eps": gp.certificate.eps,
            "passed": gp.certificate.passed,
            "lower_gap": _num(gp.certificate.lower_gap),
            "lower_strict": _num(gp.certificate.lower_strict),
            "upper_strict": _num(gp.certificate.upper_strict),
            "upper_gap": _num(gp.certificate.upper_gap),
            "cells": _cells_list(gp.cells),
            "files": {"lower": "global_lower.json", "upper": "global_upper.json"},
        },
        "tiling": {
            "delta": float(scheme.tiling.delta),
            "i_cells": _cells_list(scheme.tiling.i_cells),
            "anchors": _floats2d(scheme.tiling.anchors),
            "radii": [float(r) for r in scheme.tiling.radii],
        },
        "stages": stage_blocks,
        "order_convergence": {
            "operator": [_oc_dict(c) for c in scheme.oc_operator],
            "bands": {_var_tag(i, a): _oc_dict(scheme.oc_bands[(i, a)])
                      for (i, a) in fv},
            "final_sup_gap": float(scheme.final_sup_gap),
        },
        "analysis": {"nested_limit": nested_block, "reference": reference_block},
        "verdict": "pass" if scheme.verdict and gp.certificate.passed else "fail",
        "diagnostics": list(scheme.diagnostics),
    }
    _write_atomic_text(out / "certificate.json",
                       json.dumps(cert, sort_keys=True, indent=1) + "\n")
    _write_atomic_text(out / "summary.txt", _summary_text(cert))
    print(f"verdict: {cert['verdict']} (artifacts in {out})")
    return code


def _summary_text(cert: dict) -> str:
    lines = []
    prob = cert["problem"]
    lines.append(f"system: n={prob['n']} K={prob['K']} m={prob['m']} "
                 f"box={prob['box_lo']}..{prob['box_hi']}")
    cfg = cert["config"]
    lines.append(f"run: gamma={cfg['gamma']} stages={cfg['stages']} "
                 f"grid={cfg['grid']} eps_max={cfg['eps_max']} seed={cfg['seed']}")
    a = cert["assumption"]
    if a.get("checked"):
        sup = a["interior"]["supported"]
        lines.append(
            "assumption (interior): "
            + ("supported" if sup else "UNSUPPORTED")
            + " -- sampling EVIDENCE only, heuristic, not a proof"
        )
    else:
        lines.append("assumption (interior): check skipped by flag")
    lines.append(
        "openness radii (evidence, heuristic): "
        + " ".join(f"{r:.4g}" for r in a.get("openness_radii", []))
    )
    g = cert["global_pair"]
    lines.append(
        f"global pair: eps={g['eps']} passed={g['passed']} "
        f"margins=({g['lower_gap']:.3e}, {g['lower_strict']:.3e}, "
        f"{g['upper_strict']:.3e}, {g['upper_gap']:.3e}) "
        f"cells={len(g['cells'])}"
    )
    for s in cert["stages"]:
        lines.append(
            f"stage {s['n']}: eq1={s['eq1']['passed']} "
            f"(slack {s['eq1']['lower_slack']:.3e}/{s['eq1']['upper_slack']:.3e}) "
            f"eq2={s['eq2']['passed']} eq3={s['eq3']['passed']} "
            f"(max width ratio {s['eq3']['max_ratio']:.4f})"
        )
    oc = cert["order_convergence"]
    for j, c in enumerate(oc["operator"], start=1):
        lines.append(
            f"operator order convergence, component {j}: passed={c['passed']} "
            f"sup_gap={c['sup_gap']:.3e} tol={c['tol']:.3e}"
        )
    for tag in sorted(oc["bands"]):
        c = oc["bands"][tag]
        lines.append(
            f"band order convergence, {tag}: passed={c['passed']} "
            f"sup_gap={c['sup_gap']:.3e} tol={c['tol']:.3e}"
        )
    lines.append(f"final sup gap: {oc['final_sup_gap']:.3e}")
    ref = cert["analysis"]["reference"]
    if ref is not None:
        lines.append(f"reference containment distance: {ref['max_distance']:.3e}")
    lines.append(f"verdict: {cert['verdict']}")
    if cert["diagnostics"]:
        lines.append("diagnostics:")
        lines.extend(f"  - {d}" for d in cert["diagnostics"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification


def _close(a, b, tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return (a is None) == (b is None)
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def verify(result_dir) -> int:
    """Re-check every certificate inequality from the artifacts alone.

    Rebuilds the system from the embedded problem block, reassembles each
    serialized polynomial, recomputes all margins, widths, convergence
    gaps, and the verdict, and compares against the stored values with
    relative tolerance 1e-9. Never re-runs the jet solver.
    """
    out = Path(result_dir)
    problems: list[str] = []
    try:
        cert = json.loads((out / "certificate.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"verify: cannot read certificate: {e}")
        return 2
    if cert.get("schema") != _SCHEMA:
        print(f"verify: unsupported schema {cert.get('schema')!r}")
        return 2
    try:
        code = _verify_inner(out, cert, problems)
    except (ConstructionError, TilingError, ValueError, OSError, KeyError,
            TypeError) as e:
        print(f"verify: artifact inconsistency: {e}")
        return 2
    for p in problems:
        print(f"verify: MISMATCH {p}")
    if problems:
        print("verify: FAILED")
        return 2
    print(f"verify: all certificates reproduce; verdict {cert['verdict']}")
    return code


def _verify_inner(out: Path, cert: dict, problems: list[str]) -> int:
    prob = cert["problem"]
    system = PdeSystem(prob["n"], prob["K"], prob["m"], prob["F"], prob["f"],
                       prob["box_lo"], prob["box_hi"])
    grid = tuple(int(g) for g in cert["config"]["grid"])
    gamma = float(cert["config"]["gamma"])
    N = int(cert["config"]["stages"])
    domain = GridDomain(system.box_lo, system.box_hi, grid)
    fv = system.flat_vars()

    def check(name: str, stored, computed) -> None:
        if isinstance(stored, bool) or isinstance(computed, bool):
            if bool(stored) != bool(computed):
                problems.append(f"{name}: stored {stored}, recomputed {computed}")
        elif not _close(stored, computed):
            problems.append(f"{name}: stored {stored}, recomputed {computed}")

    def check_oc(name: str, stored: dict, c) -> None:
        for key in ("sup_gap", "inf_gap", "tol", "passed", "chain_ok"):
            check(f"{name}.{key}", stored[key], getattr(c, key))
        got, want = stored["first_violation"], _oc_dict(c)["first_violation"]
        same = (got is None and want is None) or (
            got is not None and want is not None
            and list(got[:2]) == want[:2] and _close(got[2], want[2])
        )
        if not same:
            problems.append(f"{name}.first_violation: stored {got}, recomputed {want}")

    # global pair
    g = cert["global_pair"]
    u_poly = read_poly_json(out / g["files"]["lower"])
    v_poly = read_poly_json(out / g["files"]["upper"])
    _, marked = assemble(u_poly.cells, u_poly.polys, domain)
    eps = float(g["eps"])
    meshes = marked.meshes()
    f_arrays = [arr.reshape(marked.shape) for arr in
                system.rhs_on_arrays([m.reshape(-1) for m in meshes])]
    tu = apply_operator(system, u_poly, marked)
    tv = apply_operator(system, v_poly, marked)
    off = ~marked.skeleton
    m1 = min(float(np.min(tu[j].values[off] - (f_arrays[j][off] - eps)))
             for j in range(system.K))
    m2 = min(float(np.min(f_arrays[j][off] - tu[j].values[off]))
             for j in range(system.K))
    m3 = min(float(np.min(tv[j].values[off] - f_arrays[j][off]))
             for j in range(system.K))
    m4 = min(float(np.min(f_arrays[j][off] + eps - tv[j].values[off]))
             for j in range(system.K))
    check("global_pair.lower_gap", g["lower_gap"], m1)
    check("global_pair.lower_strict", g["lower_strict"], m2)
    check("global_pair.upper_strict", g["upper_strict"], m3)
    check("global_pair.upper_gap", g["upper_gap"], m4)
    gp_pass = m1 > 0.0 and m2 > 0.0 and m3 > 0.0 and m4 > 0.0
    check("global_pair.passed", g["passed"], gp_pass)

    # stages
    i_cells = [Cell(c["lo"], c["hi"]) for c in cert["tiling"]["i_cells"]]
    radii = np.asarray(cert["tiling"]["radii"], dtype=float)
    stage_polys = []
    stage_domains = []
    prev_lo = prev_hi = None
    stages_pass = True
    for s in cert["stages"]:
        n = int(s["n"])
        v = read_poly_json(out / s["file"])
        stored_cells = [Cell(c["lo"], c["hi"]) for cs in s["j_cells"] for c in cs]
        if [tuple(c.lo) + tuple(c.hi) for c in stored_cells] != [
            tuple(c.lo) + tuple(c.hi) for c in v.cells
        ]:
            problems.append(f"stage {n}: cell tree does not match the polynomial file")
        _, smarked = assemble(v.cells, v.polys, domain)
        stage_polys.append(v)
        stage_domains.append(smarked)
        band_lo = np.asarray(s["band_lo"], dtype=float)
        band_hi = np.asarray(s["band_hi"], dtype=float)
        f_here = [arr.reshape(smarked.shape) for arr in
                  system.rhs_on_arrays([m.reshape(-1) for m in smarked.meshes()])]
        tv_s = apply_operator(system, v, smarked)
        off_s = ~smarked.skeleton
        lo_slack = min(
            float(np.min(tv_s[j].values[off_s] - (f_here[j][off_s] - gamma / n)))
            for j in range(system.K)
        )
        hi_slack = min(
            float(np.min(f_here[j][off_s] - tv_s[j].values[off_s]))
            for j in range(system.K)
        )
        check(f"stage{n}.eq1.lower_slack", s["eq1"]["lower_slack"], lo_slack)
        check(f"stage{n}.eq1.upper_slack", s["eq1"]["upper_slack"], hi_slack)
        eq1_pass = lo_slack > 0.0 and hi_slack > 0.0
        check(f"stage{n}.eq1.passed", s["eq1"]["passed"], eq1_pass)
        owner_s, _ = _classify_grid(i_cells, smarked)
        sel = (owner_s >= 0) & off_s
        own = owner_s[sel]
        inner_lo = float("inf")
        inner_hi = float("inf")
        for k, (i, a) in enumerate(fv):
            sampled = sample_component(v, i, a, smarked).values[sel]
            inner_lo = min(inner_lo, float(np.min(sampled - band_lo[own, k], initial=np.inf)))
            inner_hi = min(inner_hi, float(np.min(band_hi[own, k] - sampled, initial=np.inf)))
        if prev_lo is None:
            outer_lo = outer_hi = float("inf")
            eq2_pass = inner_lo >= 0.0 and inner_hi >= 0.0
        else:
            outer_lo = float(np.min(band_lo - prev_lo))
            outer_hi = float(np.min(prev_hi - band_hi))
            eq2_pass = (outer_lo > 0.0 and outer_hi > 0.0
                        and inner_lo >= 0.0 and inner_hi >= 0.0)
        check(f"stage{n}.eq2.outer_lower", _unnum(s["eq2"]["outer_lower"]), outer_lo)
        check(f"stage{n}.eq2.outer_upper", _unnum(s["eq2"]["outer_upper"]), outer_hi)
        check(f"stage{n}.eq2.inner_lower", s["eq2"]["inner_lower"], inner_lo)
        check(f"stage{n}.eq2.inner_upper", s["eq2"]["inner_upper"], inner_hi)
        check(f"stage{n}.eq2.passed", s["eq2"]["passed"], eq2_pass)
        widths = band_hi - band_lo
        ratios = widths * n / (4.0 * radii[:, None])
        check(f"stage{n}.eq3.max_ratio", s["eq3"]["max_ratio"], float(np.max(ratios)))
        eq3_pass = bool(np.all(ratios < 1.0))
        check(f"stage{n}.eq3.passed", s["eq3"]["passed"], eq3_pass)
        stored_w = np.asarray(s["eq3"]["widths"], dtype=float)
        if stored_w.shape != widths.shape or not np.allclose(
            stored_w, widths, rtol=1e-9, atol=0.0
        ):
            problems.append(f"stage{n}.eq3.widths: stored widths deviate")
        stages_pass = stages_pass and eq1_pass and eq2_pass and eq3_pass
        prev_lo, prev_hi = band_lo, band_hi

    # order convergence on the final lattice
    final_dom = stage_domains[-1]
    meshes = final_dom.meshes()
    f_raw = [arr.reshape(final_dom.shape) for arr in
             system.rhs_on_arrays([m.reshape(-1) for m in meshes])]
    f_gfs = [GridFunction(final_dom, arr) for arr in f_raw]
    tv_by_stage = [apply_operator(system, v, final_dom) for v in stage_polys]
    tol_tv = gamma / N * (1.0 + 1e-9)
    oc_pass = True
    for j in range(system.K):
        seq = [tv[j] for tv in tv_by_stage]
        lams = [GridFunction(final_dom, f_raw[j] - gamma / n_)
                for n_ in range(1, N + 1)]
        c = order_convergence_check(seq, lams, [f_gfs[j]] * N, f_gfs[j], tol=tol_tv)
        check_oc(f"oc.operator[{j}]", cert["order_convergence"]["operator"][j], c)
        oc_pass = oc_pass and c.passed
    band_tol = band_tolerance(radii, N)
    check("config.band_tol", cert["config"]["band_tol"], band_tol)
    bands_by_stage = [
        _band_functions(np.asarray(s["band_lo"], dtype=float),
                        np.asarray(s["band_hi"], dtype=float), final_dom, i_cells)
        for s in cert["stages"]
    ]
    for k, (i, a) in enumerate(fv):
        seq = [sample_component(v, i, a, final_dom) for v in stage_polys]
        lams = [bands[k][0] for bands in bands_by_stage]
        mus = [bands[k][1] for bands in bands_by_stage]
        c = order_convergence_check(seq, lams, mus, seq[-1], tol=band_tol)
        tag = _var_tag(i, a)
        check_oc(f"oc.bands[{tag}]", cert["order_convergence"]["bands"][tag], c)
    off_f = ~final_dom.skeleton
    final_gap = max(
        float(np.max(np.abs(tv_by_stage[-1][j].values[off_f] - f_raw[j][off_f])))
        for j in range(system.K)
    )
    check("oc.final_sup_gap", cert["order_convergence"]["final_sup_gap"], final_gap)
    verdict = (stages_pass and oc_pass and final_gap < gamma / N and gp_pass)
    stored_verdict = cert["verdict"] == "pass"
    check("verdict", stored_verdict, verdict)
    return 0 if (verdict and not problems) else 2


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordercomplete",
        description="Certified lower/upper approximate solutions of nonlinear "
                    "PDE systems on lattices, with refinement certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the full pipeline on a problem file")
    p_run.add_argument("spec", help="problem file (key = value lines)")
    p_run.add_argument("--gamma", type=float, required=True,
                       help="base tolerance of the refinement scheme")
    p_run.add_argument("--stages", type=int, required=True,
                       help="number of refinement stages")
    p_run.add_argument("--grid", type=int, default=None,
                       help="lattice resolution per axis (default: file key)")
    p_run.add_argument("--eps-max", type=float, default=1.0,
                       help="cap on the witnessed openness radii")
    p_run.add_argument("--seed", type=int, default=0, help="rng seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--skip-assumption-check", action="store_true",
                       help="skip the sampling-based solvability probe")
    p_run.add_argument("--no-samples", action="store_true",
                       help="do not write CSV sample files")
    p_ver = sub.add_parser("verify", help="re-check certificates in a result dir")
    p_ver.add_argument("dir", help="directory written by a previous run")
    args = parser.parse_args(argv)
    if args.command == "verify":
        return verify(args.dir)
    try:
        cfg = RunConfig(
            spec=args.spec, gamma=args.gamma, stages=args.stages,
            grid=args.grid, out=args.out, eps_max=args.eps_max,
            seed=args.seed, skip_assumption_check=args.skip_assumption_check,
            emit_samples=not args.no_samples,
        )
    except ValueError as e:
        print(f"config error: {e}")
        return 3
    return run_pipeline(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
