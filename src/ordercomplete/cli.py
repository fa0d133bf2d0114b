"""Batch front end: parse problem files, orchestrate assumption probes,
the global pair, the refinement scheme, and the analysis passes, then emit
certificates and data files.

Artifacts are deterministic for a fixed config and seed (no timestamps,
one line of compact JSON with sorted keys and repr floats, see
jets.artifact_json) and every file is written atomically via a temporary
sibling and rename. The certificate stores each fact once. The seed feeds
the interior probe's generator and, through the solver's per-cell streams
(`solver._stream`), each openness probe and each multistart fallback, so
no draw depends on the order in which cells are handled. `verify` rebuilds
the tiling from the box and the lattice and the polynomials and bands from
the artifacts, takes the global pair's eps from config.gamma, checks the
stored anchor jets against their equation, recomputes every certificate
through the solver's certificate functions that `run` uses, and compares
the stored blocks with the recomputed ones serialized the same way; it
never re-solves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import expr as ex
from .analysis import IntervalSequence, compare_reference, nested_limit_check
from .grids import GridDomain, GridFunction, OrderInterval, write_csv
from .jets import TilingError, artifact_json, read_poly_json, write_poly_json
from .pde import PdeSystem, check_assumption_interior
from .solver import (
    ConstructionError,
    apeq_certificate,
    band_tolerance,
    check_anchor_jets,
    global_pair,
    run_scheme,
    scheme_convergence,
    scheme_tiling,
    stage_bands,
    stage_certificates,
)

_SCHEMA = 2


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
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be finite and positive")
        if self.stages < 1:
            raise ValueError("stages must be at least 1")
        if self.grid is not None and self.grid < 8:
            raise ValueError("grid resolution must be at least 8 per axis")
        if not (math.isfinite(self.eps_max) and self.eps_max > 0.0):
            raise ValueError("eps_max must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# ---------------------------------------------------------------------------
# serialization helpers


def _write_atomic(path: Path, content: str | GridFunction) -> None:
    """Write content, text or a GridFunction as CSV, to a file beside path,
    then move it over path."""
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(content, GridFunction):
        write_csv(content, tmp)
    else:
        tmp.write_text(content)
    os.replace(tmp, path)


def _num(x: float) -> float | None:
    """Map non-finite sentinel margins to null for strict JSON."""
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return None
    return x


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


def _cert_dict(c) -> dict:
    """An ApEq or EQ1-EQ3 certificate as `run` writes it and `verify`
    compares it: flags as they are, margins through _num."""
    out = {}
    for f in fields(c):
        x = getattr(c, f.name)
        out[f.name] = x if isinstance(x, bool) else _num(x)
    return out


def _cells_list(cells: np.ndarray) -> list[dict]:
    """Cells (C, 2, n) as `run` writes them: one {"lo", "hi"} dict each."""
    return [{"lo": lo, "hi": hi} for lo, hi in cells.tolist()]


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(cfg: RunConfig) -> int:
    """Run the full pipeline and write artifacts; returns the exit code.

    0 = all certificates pass, 2 = a certificate failed, 3 = the
    construction itself failed (including unsupported assumptions) or the
    output directory or an artifact could not be written.
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
    try:
        domain = GridDomain(system.box_lo, system.box_hi, (res,) * system.n)
    except (ValueError, MemoryError) as e:
        print(f"spec error: {e}")
        return 3
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"output error: {e}")
        return 3

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
        gp = global_pair(system, domain, eps=cfg.gamma, seed=cfg.seed)
        scheme = run_scheme(system, domain, cfg.gamma, cfg.stages,
                            eps_max=cfg.eps_max, seed=cfg.seed)
    except (ConstructionError, TilingError, ex.EvalDomainError) as e:
        print(f"construction failure: {e}")
        return 3

    assumption_block["note"] = "sampling evidence; not a proof"

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
        ref = compare_reference(system, exact, scheme.bands_by_stage)
        reference_block = {
            "max_distance": float(ref.max_distance),
            "per_stage": [
                {_var_tag(*v): float(d) for v, d in dists.items()}
                for dists in ref.distances
            ],
        }

    # artifacts
    stage_blocks = [{
        "n": st.n,
        "file": f"stage{st.n}/poly.json",
        "eq1": _cert_dict(st.eq1),
        "eq2": _cert_dict(st.eq2),
        "eq3": _cert_dict(st.eq3),
        "band_lo": st.band_lo.tolist(),
        "band_hi": st.band_hi.tolist(),
        "i_jets": st.i_jets.tolist(),
        "j_cells": [_cells_list(cs) for cs in st.j_cells],
    } for st in scheme.stages]
    code = 0 if (gp.certificate.passed and scheme.verdict) else 2
    cert = {
        "schema": _SCHEMA,
        "config": {
            "gamma": float(cfg.gamma),
            "stages": int(cfg.stages),
            "grid": [int(res)] * system.n,
            "eps_max": float(cfg.eps_max),
            "seed": int(cfg.seed),
            "band_tol": band_tolerance(scheme.tiling.radii, scheme.N),
        },
        "problem": {
            "n": system.n, "K": system.K, "m": system.m,
            "box_lo": system.box_lo.tolist(),
            "box_hi": system.box_hi.tolist(),
            "F": [ex.render(e) for e in system.F],
            "f": [ex.render(e) for e in system.f],
            "exact": None if exact is None else [ex.render(e) for e in exact],
        },
        "assumption": assumption_block,
        "global_pair": {
            **_cert_dict(gp.certificate),
            "files": {"lower": "global_lower.json", "upper": "global_upper.json"},
        },
        "tiling": {
            "i_cells": _cells_list(scheme.tiling.i_cells),
            "radii": scheme.tiling.radii.tolist(),
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
    try:
        _write_artifacts(out, system, gp, scheme, cert, cfg.emit_samples)
    except OSError as e:
        print(f"output error: {e}")
        return 3
    print(f"verdict: {cert['verdict']} (artifacts in {out})")
    return code


def _write_artifacts(out: Path, system: PdeSystem, gp, scheme, cert: dict,
                     emit_samples: bool) -> None:
    """The files of a run directory: gp's and each stage's polynomials,
    the CSV samples if emit_samples, then the certificate and its summary."""
    write_poly_json(gp.lower, out / "global_lower.json")
    write_poly_json(gp.upper, out / "global_upper.json")
    tags = [_var_tag(i, a) for i, a in system.flat_vars()]
    for st, tv, bands, samples in zip(scheme.stages, scheme.tv_by_stage,
                                      scheme.bands_by_stage, scheme.samples_by_stage):
        sdir = out / f"stage{st.n}"
        sdir.mkdir(exist_ok=True)
        write_poly_json(st.v, sdir / "poly.json")
        if emit_samples:
            for j in range(system.K):
                _write_atomic(sdir / f"tv_u{j + 1}.csv", tv[j])
            for tag, d, (lo, hi) in zip(tags, samples, bands):
                _write_atomic(sdir / f"d_{tag}.csv", d)
                _write_atomic(sdir / f"lo_{tag}.csv", lo)
                _write_atomic(sdir / f"hi_{tag}.csv", hi)
    if emit_samples:
        for j in range(system.K):
            _write_atomic(out / f"f{j + 1}.csv", scheme.f_samples[j])
    _write_atomic(out / "certificate.json", artifact_json(cert))
    _write_atomic(out / "summary.txt", _summary_text(cert, len(gp.cells)))


def _summary_text(cert: dict, global_cells: int) -> str:
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
        + " ".join(f"{r:.4g}" for r in cert["tiling"]["radii"])
    )
    g = cert["global_pair"]
    lines.append(
        f"global pair: eps={g['eps']} passed={g['passed']} "
        f"margins=({g['lower_gap']:.3e}, {g['lower_strict']:.3e}, "
        f"{g['upper_strict']:.3e}, {g['upper_gap']:.3e}) "
        f"cells={global_cells}"
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


def _compare(problems: list[str], name: str, stored, want) -> None:
    """Compare a stored certificate block with the recomputed one, both in
    the form run_pipeline writes: flags exactly, numbers through _close,
    first violations exactly on (n, leg)."""
    key = name.rsplit(".", 1)[-1]
    if isinstance(want, dict):
        for k, w in want.items():
            _compare(problems, f"{name}.{k}", stored[k], w)
    elif key == "first_violation":
        same = (stored is None and want is None) or (
            isinstance(stored, list) and len(stored) == 3 and want is not None
            and stored[:2] == want[:2] and _close(stored[2], want[2])
        )
        if not same:
            problems.append(f"{name}: stored {stored}, recomputed {want}")
    elif isinstance(stored, bool) or isinstance(want, bool):
        if bool(stored) != bool(want):
            problems.append(f"{name}: stored {stored}, recomputed {want}")
    elif not _close(stored, want):
        problems.append(f"{name}: stored {stored}, recomputed {want}")


def _expect(what: str, found, expected) -> None:
    if found != expected:
        raise ValueError(f"{what}: expected {expected}, found {found}")


def verify(result_dir) -> int:
    """Re-check every certificate from the artifacts alone.

    Rebuilds the system from the embedded problem block, derives the
    tiling from the box and the lattice as `run` does (scheme_tiling) and
    compares its I-cells exactly with the stored ones, and checks every
    radius against (0, config.eps_max]. Recomputes the global pair's
    certificate at eps = config.gamma, the eps `run` certifies it at, and
    checks that both global polynomial files have the same cells. Checks
    each stage's stored anchor jets against their equation and, after
    stage 1, the box their solve was confined to (solver.check_anchor_jets),
    and compares its stored bands exactly with the ones solver.stage_bands
    derives from them, the radii and the previous bands. Then recomputes
    every certificate from the serialized polynomials on the bare lattice
    (sampling marks each one's skeleton) through the same solver functions
    `run` uses, and compares the results, serialized as `run` writes them,
    with the stored blocks at relative tolerance 1e-9.
    Never re-runs the jet solver. Artifacts of the wrong shape, count or
    polynomial signature, a lattice too large to allocate, or a number too
    large to convert (JSON 1e400 reads as inf), are an inconsistency (exit 2).
    """
    out = Path(result_dir)
    problems: list[str] = []
    try:
        cert = json.loads((out / "certificate.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"verify: cannot read certificate: {e}")
        return 2
    if not isinstance(cert, dict):
        print("verify: artifact inconsistency: certificate is not a JSON object")
        return 2
    if cert.get("schema") != _SCHEMA:
        print(f"verify: unsupported schema {cert.get('schema')!r}")
        return 2
    try:
        code = _verify_inner(out, cert, problems)
    except (ConstructionError, TilingError, ValueError, OSError, KeyError,
            TypeError, MemoryError, OverflowError) as e:
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
    if N < 1:
        raise ValueError(f"config.stages: expected at least 1, found {N}")
    domain = GridDomain(system.box_lo, system.box_hi, grid)

    def read_poly(name: str):
        v = read_poly_json(out / name)
        _expect(f"{name} signature (space_dim, components, order)",
                (v.space_dim, v.components, v.order), (system.n, system.K, system.m))
        return v

    # global pair
    g = cert["global_pair"]
    u_poly = read_poly(g["files"]["lower"])
    v_poly = read_poly(g["files"]["upper"])
    if not np.array_equal(v_poly.bounds, u_poly.bounds):
        problems.append("global_pair: the upper polynomial file's cells differ "
                        "from the lower one's")
    gp = apeq_certificate(system, u_poly, v_poly, domain, gamma)
    _compare(problems, "global_pair", g, _cert_dict(gp))

    # the tiling, derived from the box and the lattice as run derives it
    t = cert["tiling"]
    tiling = scheme_tiling(domain)
    if t["i_cells"] != _cells_list(tiling.i_cells):
        problems.append("tiling.i_cells: stored value differs from the tiling "
                        "of the box and the lattice")
    i_cells = tiling.i_cells
    radii = np.asarray(t["radii"], dtype=float)
    _expect("tiling.radii shape", radii.shape, (len(i_cells),))
    eps_max = float(cert["config"]["eps_max"])
    outside = ~((radii > 0.0) & (radii <= eps_max))
    if outside.any():
        ci = int(np.argmax(outside))
        problems.append(f"tiling.radii: radius {ci} is {float(radii[ci])!r}, outside "
                        f"(0, eps_max={eps_max!r}]")

    # stages
    stages = cert["stages"]
    _expect("stage count", len(stages), N)
    _expect("stage numbers", [s["n"] for s in stages], list(range(1, N + 1)))
    band_shape = (len(i_cells), system.unknown_count)
    samples = []
    prev_bands = None
    stages_pass = True
    for s in stages:
        n = s["n"]
        v = read_poly(s["file"])
        if [c for cs in s["j_cells"] for c in cs] != _cells_list(v.bounds):
            problems.append(f"stage {n}: cell tree does not match the polynomial file")
        band_lo = np.asarray(s["band_lo"], dtype=float)
        band_hi = np.asarray(s["band_hi"], dtype=float)
        _expect(f"stage{n}.band_lo shape", band_lo.shape, band_shape)
        _expect(f"stage{n}.band_hi shape", band_hi.shape, band_shape)
        i_jets = np.asarray(s["i_jets"], dtype=float)
        _expect(f"stage{n}.i_jets shape", i_jets.shape, band_shape)
        try:
            derived = stage_bands(i_jets, radii, prev_bands, n)
        except ConstructionError as e:  # the stored anchor jets leave no band
            problems.append(f"stage{n} bands: {e}")
        else:
            for key, stored, want in zip(("band_lo", "band_hi"), (band_lo, band_hi), derived):
                if not np.array_equal(stored, want):
                    problems.append(f"stage{n}.{key}: stored bands differ from those of "
                                    "the stored anchor jets, radii and previous bands")
        for held, what in zip(
            check_anchor_jets(system, tiling.anchors, i_jets, prev_bands, n, gamma),
            ("does not solve its equation", "lies outside the previous bands' inner box"),
        ):
            if not held.all():
                problems.append(f"stage{n}.i_jets: anchor jet {int(np.argmin(held))} {what}")
        (eq1, eq2, eq3), stage_samples = stage_certificates(
            system, v, domain, i_cells, radii, band_lo, band_hi, prev_bands, n, gamma)
        for key, c in (("eq1", eq1), ("eq2", eq2), ("eq3", eq3)):
            _compare(problems, f"stage{n}.{key}", s[key], _cert_dict(c))
        stages_pass = stages_pass and eq1.passed and eq2.passed and eq3.passed
        samples.append(stage_samples)
        prev_bands = (band_lo, band_hi)

    # order convergence on the final lattice
    oc = cert["order_convergence"]
    _expect("operator certificates", len(oc["operator"]), system.K)
    tags = [_var_tag(i, a) for i, a in system.flat_vars()]
    _expect("band certificate tags", sorted(oc["bands"]), sorted(tags))
    conv = scheme_convergence(system, samples, radii, gamma)
    for j, c in enumerate(conv.oc_operator):
        _compare(problems, f"oc.operator[{j}]", oc["operator"][j], _oc_dict(c))
    for (i, a), c in conv.oc_bands.items():
        tag = _var_tag(i, a)
        _compare(problems, f"oc.bands[{tag}]", oc["bands"][tag], _oc_dict(c))
    _compare(problems, "oc.final_sup_gap", oc["final_sup_gap"], conv.final_sup_gap)
    _compare(problems, "config.band_tol", cert["config"]["band_tol"],
             band_tolerance(radii, N))
    verdict = stages_pass and conv.passed and gp.passed
    _compare(problems, "verdict", cert["verdict"] == "pass", verdict)
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
