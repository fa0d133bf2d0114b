"""Batch front end: parse problem files, orchestrate assumption probes,
the global pair, the refinement scheme, and the analysis passes, then emit
certificates and data files.

Artifacts are deterministic for a fixed config and seed (no timestamps;
the certificate is one line of compact JSON with sorted keys and repr
floats, jets.artifact_json, and each polynomial one .npy array of records,
jets.write_poly_json), and every file is written atomically via a
temporary sibling and rename. The certificate stores each fact once. The
seed feeds the interior probe's generator and, through the solver's
per-cell streams (`solver._stream`), each openness probe and each
multistart fallback, so no draw depends on the order in which cells are
handled.

One function builds certificate.json (`_certificate`): `run` calls it on
what it constructed, and `verify` on what it recomputed from the
artifacts alone through `checker`, whose functions `run` uses too, and
the interior probe, then compares the stored document with the rebuilt
one whole (`_compare`) and summary.txt with its rendering. Only the
inputs `_TAKEN_AS_STORED` names are copied from the stored document.
`verify` reads no CSV file and never imports `solver`: it never re-solves.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import expr as ex
from .analysis import compare_reference, nested_limit_check
from .grids import GridDomain, GridFunction, complete
from .jets import (CellsLeaf, TilingError, _centers, _check_tiling, artifact_json,
                   float_array, read_poly_json, write_atomic, write_poly_json)
from .pde import _R_MIN, PdeSystem, check_assumption_interior
from .checker import (ConstructionError, _inner_boxes, apeq_certificate, band_tolerance,
                      certified_stage, check_jets, jcell_boxes, scheme_convergence,
                      scheme_verdict, stage_bands, tile_domain)

_SCHEMA = 5


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


@dataclass(repr=False)
class RunConfig:
    """The options of `ordercomplete run`, checked on construction."""

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


def _num(x: float) -> float | None:
    """Map non-finite sentinel margins to null for strict JSON."""
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return None
    return x


def _var_tag(i: int, alpha: tuple[int, ...]) -> str:
    return f"u{i}_a" + "_".join(str(int(k)) for k in alpha)


def _cert_dict(c) -> dict:
    """A certificate as `run` writes it: flags as they are, margins through
    _num, and an order-convergence certificate's first violation (stage,
    leg, value) as a list, or None."""
    out = {}
    for f in fields(c):
        x = getattr(c, f.name)
        out[f.name] = (x if isinstance(x, bool) or x is None
                       else list(x) if isinstance(x, tuple) else _num(x))
    return out


def _stage_file(n: int) -> str:
    """The polynomial file of stage n, relative to the run directory."""
    return f"stage{n}.npy"


_GLOBAL_FILES = {"lower": "global_lower.npy", "upper": "global_upper.npy"}


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(cfg: RunConfig) -> int:
    """Run the full pipeline and write artifacts; returns the exit code.

    0 = all certificates pass, 2 = a certificate failed, 3 = the
    construction itself failed (including unsupported assumptions) or the
    output directory or an artifact could not be written.
    """
    # imported here, not with the module, so that `verify` never loads solver
    from .solver import global_pair, run_scheme

    try:
        system, exact, grid_file = load_spec(cfg.spec)
    except (OSError, ValueError) as e:
        print(f"spec error: {e}")
        return 3
    res = cfg.grid if cfg.grid is not None else grid_file
    if res is None:
        print("spec error: no grid resolution (file key 'grid' or --grid)")
        return 3
    try:
        cfg = replace(cfg, grid=res)  # RunConfig's rules hold for a file's grid too
        domain = GridDomain(system.box_lo, system.box_hi, (cfg.grid,) * system.n)
    except (ValueError, MemoryError) as e:
        print(f"spec error: {e}")
        return 3

    # a numeric fault while constructing is a construction failure too
    try:
        assumption = _assumption(system, cfg.seed, not cfg.skip_assumption_check)
        interior = assumption.get("interior")
        if interior is not None and not interior["supported"]:
            margin = interior["margin_min"]  # null when no sample is kept
            print(
                "construction failure: interior assumption unsupported at the "
                "box center (directional margin "
                f"{-math.inf if margin is None else margin:.3e}); "
                "the data point is not evidenced to lie inside the operator's "
                "image over the trial jet box"
            )
            return 3
        gp = global_pair(system, domain, eps=cfg.gamma, seed=cfg.seed)
        scheme = run_scheme(system, domain, cfg.gamma, cfg.stages,
                            eps_max=cfg.eps_max, seed=cfg.seed)
        config = {"gamma": float(cfg.gamma), "stages": int(cfg.stages),
                  "grid": [int(cfg.grid)] * system.n, "eps_max": float(cfg.eps_max),
                  "seed": int(cfg.seed)}
        cert = _certificate(config, system, exact, assumption, gp.certificate,
                            scheme.tiling, scheme.stages, scheme)
    except (ConstructionError, TilingError, ex.EvalDomainError) as e:
        print(f"construction failure: {e}")
        return 3
    out = Path(cfg.out)
    try:
        _write_artifacts(out, system, gp, scheme, cert, cfg.emit_samples)
    except OSError as e:
        print(f"output error: {e}")
        return 3
    print(f"verdict: {cert['verdict']} (artifacts in {out})")
    return 0 if cert["verdict"] == "pass" else 2


def _assumption(system: PdeSystem, seed: int, checked: bool) -> dict:
    """The assumption block; if checked, with the interior probe at the box
    centre over the trial jet box [-10, 10]^M on default_rng(seed)."""
    block: dict = {"checked": checked, "note": "sampling evidence; not a proof"}
    if checked:
        ev = check_assumption_interior(
            system, 0.5 * (system.box_lo + system.box_hi),
            np.tile([-10.0, 10.0], (system.unknown_count, 1)),
            rng=np.random.default_rng(seed))
        block["interior"] = {
            "supported": bool(ev.supported),
            "witnessed_radius": _num(ev.witnessed_radius),
            "margin_min": _num(ev.margin_min),
            "directions": ev.directions,
            "samples_used": ev.samples_used,
            "r_min": ev.r_min,
            "note": ev.note,
        }
    return block


def _analysis(system: PdeSystem, exact, conv) -> dict:
    """The analysis block (diagnostic; never gates the verdict) of conv, a
    SchemeConvergence: the nested limit of the stage bands and their
    distances to the exact solutions."""
    fv = system.flat_vars()
    try:
        nested = nested_limit_check(conv.domain, conv.bands_by_stage, tol=1e-3)
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
        ref = compare_reference(system, exact, conv.domain, conv.bands_by_stage)
        reference_block = {
            "max_distance": float(ref.max_distance),
            "per_stage": [
                {_var_tag(*v): float(d) for v, d in dists.items()}
                for dists in ref.distances
            ],
        }
    return {"nested_limit": nested_block, "reference": reference_block}


def _certificate(config: dict, system: PdeSystem, exact, assumption: dict, gp,
                 tiling, stages, conv) -> dict:
    """certificate.json as a dict, the one builder of the document: `run`
    calls it on what it constructed and `verify` on what it recomputed.
    config holds the inputs (_INPUTS), assumption is _assumption's block,
    gp is the global pair's ApEqCertificate, tiling carries the I-cells and
    the radii, stages are RefinementStages and conv their SchemeConvergence."""
    verdict, diagnostics = scheme_verdict(stages, conv, gp)
    return {
        "schema": _SCHEMA,
        "config": {**config, "band_tol": band_tolerance(tiling.radii, config["stages"])},
        "problem": {
            "n": system.n, "K": system.K, "m": system.m,
            "box_lo": system.box_lo.tolist(),
            "box_hi": system.box_hi.tolist(),
            "F": [ex.render(e) for e in system.F],
            "f": [ex.render(e) for e in system.f],
            "exact": None if exact is None else [ex.render(e) for e in exact],
        },
        "assumption": assumption,
        "global_pair": {**_cert_dict(gp), "files": dict(_GLOBAL_FILES)},
        "tiling": {"i_cells": CellsLeaf(tiling.i_cells), "radii": tiling.radii},
        "stages": [{
            "n": st.n,
            "file": _stage_file(st.n),
            "eq1": _cert_dict(st.eq1),
            "eq2": _cert_dict(st.eq2),
            "eq3": _cert_dict(st.eq3),
            "band_lo": st.band_lo,
            "band_hi": st.band_hi,
            "i_jets": st.i_jets,
            "j_cells": CellsLeaf(st.v.bounds, tuple(map(len, st.j_cells))),
        } for st in stages],
        "order_convergence": {
            "operator": [_cert_dict(c) for c in conv.oc_operator],
            "bands": {_var_tag(i, a): _cert_dict(c) for (i, a), c in conv.oc_bands.items()},
            "final_sup_gap": float(conv.final_sup_gap),
        },
        "analysis": _analysis(system, exact, conv),
        "verdict": "pass" if verdict else "fail",
        "diagnostics": diagnostics,
    }


def _write_artifacts(out: Path, system: PdeSystem, gp, scheme, cert: dict,
                     emit_samples: bool) -> None:
    """The run directory out, made with its parents, and its files, with no
    subdirectory: gp's and each stage's polynomials, if emit_samples one
    CSV file per stage (stageN.csv: T V_n per component, then each jet
    variable's sample and band) and one of f (f.csv), then the certificate
    and its summary."""
    out.mkdir(parents=True, exist_ok=True)
    write_poly_json(gp.lower, out / _GLOBAL_FILES["lower"])
    write_poly_json(gp.upper, out / _GLOBAL_FILES["upper"])
    final = scheme.domain
    names = [f"tv_u{j + 1}" for j in range(system.K)] + [
        f"{kind}_{_var_tag(i, a)}" for i, a in system.flat_vars() for kind in ("d", "lo", "hi")]
    for st in scheme.stages:
        write_poly_json(st.v, out / _stage_file(st.n))
        if emit_samples:
            # V_n is normal, so its completion by the normalize rule is its
            # sampling on the final lattice (see checker.scheme_convergence)
            marked, jets, tv, (lo, hi) = st.samples
            rows = [*tv, *itertools.chain.from_iterable(zip(jets, lo, hi))]
            write_atomic(out / f"stage{st.n}.csv",
                         dict(zip(names, complete(final, ~marked.skeleton, rows))))
    if emit_samples:
        write_atomic(out / "f.csv", {f"f{j + 1}": GridFunction(final, a)
                                     for j, a in enumerate(system.rhs_on_lattice(final))})
    write_atomic(out / "certificate.json", artifact_json(cert))
    write_atomic(out / "summary.txt", _summary_text(cert, len(gp.cells)))


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


# The fields `verify` takes from the stored certificate instead of
# deriving them, with the reason for each, as JSON paths ("[]" stands for
# every list index). It derives every other field.
_INPUTS = ("gamma", "stages", "grid", "eps_max", "seed")
_TAKEN_AS_STORED = {
    **{f"config.{key}": "an input" for key in _INPUTS},
    "tiling.radii": "sampling evidence of the openness probe; each must be a radius "
                    "run can write: config.eps_max or in (pde._R_MIN, config.eps_max)",
    "stages[].i_jets": "each anchor jet is residual-checked against its equation "
                       "and its solve's box (checker.check_jets)",
    "assumption.checked": "an input: false exactly when run had --skip-assumption-check",
}


def _no_bool(node: list) -> bool:
    """Whether no leaf under a JSON list is a bool, one pass per tree level."""
    while node:
        kinds = set(map(type, node))
        if bool in kinds or not kinds & {list, dict}:
            return bool not in kinds
        if kinds == {dict}:
            node = map(dict.values, node)
        elif kinds != {list}:
            node = [x.values() if type(x) is dict else x for x in node
                    if type(x) in (dict, list)]
        node = list(itertools.chain.from_iterable(node))
    return True


def _same(stored, want) -> bool:
    """A stored leaf against its recomputed value: a bool equals only the
    same bool, a number only an equal number, compared as a double (so
    one too large for a double raises OverflowError), and None only None."""
    if isinstance(stored, bool) or isinstance(want, bool):
        return stored is want
    if isinstance(want, (int, float)):
        return isinstance(stored, (int, float)) and float(stored) == want
    return stored == want


def _bool_where_equal(stored: list, want: np.ndarray | CellsLeaf) -> bool:
    """Whether stored, equal under == to want.tolist() (want a float64 array
    or a CellsLeaf), holds a bool: only where want holds 0.0, -0.0 or 1.0
    can it, since True == 1.0 and False == 0.0."""
    values = want.cells if isinstance(want, CellsLeaf) else want
    at = np.flatnonzero((values == 0.0) | (values == 1.0)).tolist()
    if not at:
        return False
    depth = values.ndim - 1  # stored as one flat list, in values' order
    if isinstance(want, CellsLeaf):  # each cell's lo, then its hi
        cells = stored if want.counts is None else itertools.chain.from_iterable(stored)
        stored, depth = [c[side] for c in cells for side in ("lo", "hi")], 1
    for _ in range(depth):
        stored = list(itertools.chain.from_iterable(stored))
    return any(type(stored[i]) is bool for i in at)


def _compare(problems: list[str], at: str, stored, want) -> None:
    """Compare the stored certificate with the recomputed one, both in the
    form `run` writes, exactly: a missing or extra key, or a list of the
    wrong length, raises ValueError (an artifact inconsistency), and a leaf
    that differs (see _same) is a problem named by its JSON path at. An
    array or CellsLeaf of want is compared as its tolist(), whole when it
    is equal and holds no bool (_bool_where_equal), else leaf by leaf."""
    if isinstance(want, (np.ndarray, CellsLeaf)):
        listed = want.tolist()
        if stored == listed and not _bool_where_equal(stored, want):
            return
        want = listed
    if isinstance(want, dict):
        keys = stored.keys() if isinstance(stored, dict) else set()
        if keys != want.keys():
            raise ValueError(f"{at or 'certificate'}: missing keys "
                             f"{sorted(want.keys() - keys)}, extra keys "
                             f"{sorted(keys - want.keys())}")
        for key, w in want.items():
            _compare(problems, f"{at}.{key}" if at else key, stored[key], w)
    elif isinstance(want, list):
        if not isinstance(stored, list) or len(stored) != len(want):
            raise ValueError(f"{at}: expected a list of {len(want)} entries, "
                             f"found {stored!r:.60}")
        # == takes True for 1: a list is equal whole only without bools
        if not (_no_bool(want) and _no_bool(stored) and stored == want):
            for i, (s, w) in enumerate(zip(stored, want)):
                _compare(problems, f"{at}[{i}]", s, w)
    elif not _same(stored, want):
        problems.append(f"{at}: stored {stored}, recomputed {want}")


def _inputs(stored: dict) -> dict:
    """The inputs (_INPUTS) of a stored config, of the types `run` writes
    (ints, not bools, for stages, seed and each grid entry; floats for
    gamma and eps_max) and within RunConfig's ranges, or a ValueError."""
    config = {key: stored[key] for key in _INPUTS}
    grid = config["grid"]
    for key, ok in (("gamma", type(config["gamma"]) is float),
                    ("eps_max", type(config["eps_max"]) is float),
                    ("stages", type(config["stages"]) is int),
                    ("seed", type(config["seed"]) is int),
                    ("grid", type(grid) is list and all(type(g) is int for g in grid))):
        if not ok:
            raise ValueError(f"config.{key}: {config[key]!r:.60} is not of the type run writes")
    # RunConfig takes one resolution per axis: checking the least checks them all
    RunConfig(spec="", out="", grid=min(grid, default=None),
              **{key: config[key] for key in _INPUTS if key != "grid"})
    return config


def verify(result_dir) -> int:
    """Re-check every certificate from the artifacts alone (see the module
    docstring); returns the exit code. Besides the whole-document compare,
    it checks that each radius is one `run` can write (and stops at one
    that is not), (checker.check_jets) each stage's stored anchor jets and
    the jet of each cell of each polynomial file, and that summary.txt is
    the rebuilt document's. Artifacts of the wrong shape, count or
    signature, a polynomial file that is not one array of records
    (jets.read_poly_json) or whose cells do not tile the box, a global pair
    whose two files have different cells (checker.apeq_certificate), a
    missing or unreadable file, a missing or extra key, an input of a type
    or range `run` never writes, a lattice too large to allocate, or a
    number too large to convert are an inconsistency (exit 2)."""
    out = Path(result_dir)
    problems: list[str] = []
    try:
        cert = json.loads((out / "certificate.json").read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as e:  # nested too deep
        print(f"verify: cannot read certificate: {e}")
        return 2
    if not isinstance(cert, dict):
        print("verify: artifact inconsistency: certificate is not a JSON object")
        return 2
    if cert.get("schema") != _SCHEMA:
        print(f"verify: unsupported schema {cert.get('schema')!r}")
        return 2
    inconsistency = None
    try:
        code = _verify_inner(out, cert, problems)
    except (ConstructionError, ValueError, OSError, LookupError,
            TypeError, MemoryError, OverflowError) as e:
        inconsistency = f"verify: artifact inconsistency: {e}"
    for p in problems:  # found before an inconsistency too
        print(f"verify: MISMATCH {p}")
    if inconsistency or problems:
        print(inconsistency or "verify: FAILED")
        return 2
    print(f"verify: all certificates reproduce; verdict {cert['verdict']}")
    return code


def _verify_inner(out: Path, cert: dict, problems: list[str]) -> int:
    prob = cert["problem"]
    system = PdeSystem(prob["n"], prob["K"], prob["m"], prob["F"], prob["f"],
                       prob["box_lo"], prob["box_hi"])
    exact = None if prob["exact"] is None else [
        ex.parse(e, (system.n, system.K, system.m)) for e in prob["exact"]]
    config = _inputs(cert["config"])
    gamma, N, eps_max = config["gamma"], config["stages"], config["eps_max"]
    domain = GridDomain(system.box_lo, system.box_hi, config["grid"])

    def read_poly(name: str):
        # its structure first: index_of and the certificates see cells that tile
        try:
            v = read_poly_json(out / name)
            found = (v.space_dim, v.components, v.order)
            if found != (system.n, system.K, system.m):
                raise ValueError(f"signature (space_dim, components, order): expected "
                                 f"{(system.n, system.K, system.m)}, found {found}")
            _check_tiling(v.bounds, domain.lo, domain.hi)
        except ValueError as e:
            raise ValueError(f"{name}: {e}") from None
        return v

    def check(at: str, held: np.ndarray, what: str) -> None:
        if not held.all():
            problems.append(f"{at} {int(np.argmin(held))} {what}")

    def check_cells(name: str, v, shift: float, boxes=None) -> None:
        # a cell's jet solves its equation at its center, in its box
        for held, what in zip(
            check_jets(system, _centers(v.bounds), v.coeffs.reshape(len(v.bounds), -1),
                       shift, boxes),
            ("has a jet that does not solve its equation", "has a jet outside its solve's box")):
            check(f"{name}: cell", held, what)

    u_poly, v_poly = read_poly(_GLOBAL_FILES["lower"]), read_poly(_GLOBAL_FILES["upper"])
    check_cells(_GLOBAL_FILES["lower"], u_poly, -0.5 * gamma)
    check_cells(_GLOBAL_FILES["upper"], v_poly, 0.5 * gamma)
    gp = apeq_certificate(system, u_poly, v_poly, domain, gamma)

    tiling = tile_domain(domain)
    radii = float_array(cert["tiling"]["radii"], (len(tiling.i_cells),), "tiling.radii")
    # run writes min(margin, eps_max) for a margin above _R_MIN
    written = (radii == eps_max) | ((radii > _R_MIN) & (radii < eps_max))
    if not written.all():
        ci = int(np.argmin(written))
        problems.append(f"tiling.radii: radius {ci} is {float(radii[ci])!r}, neither "
                        f"eps_max={eps_max!r} nor in (r_min={_R_MIN!r}, eps_max)")
        return 2
    tiling = replace(tiling, radii=radii)

    shape = (len(tiling.i_cells), system.unknown_count)
    stages = []
    prev_bands = None
    for n in range(1, N + 1):
        s, name = cert["stages"][n - 1], f"stages[{n - 1}]"
        i_jets, band_lo, band_hi = (float_array(s[key], shape, f"{name}.{key}")
                                    for key in ("i_jets", "band_lo", "band_hi"))
        shift = -gamma / (2.0 * n)
        for held, what in zip(
            check_jets(system, tiling.anchors, i_jets, shift,
                       None if prev_bands is None else _inner_boxes(*prev_bands)),
            ("does not solve its equation", "lies outside the previous bands' inner box"),
        ):
            check(f"{name}.i_jets: anchor jet", held, what)
        try:
            bands = stage_bands(i_jets, radii, prev_bands, n)
        except ConstructionError as e:  # the stored anchor jets leave no band
            problems.append(f"{name} bands: {e}")
            bands = band_lo, band_hi
        v = read_poly(_stage_file(n))
        own = tiling.index_of(_centers(v.bounds))
        check_cells(_stage_file(n), v, shift, jcell_boxes(*bands, prev_bands, n)[own])
        stages.append(certified_stage(system, domain, tiling, v, own, i_jets, *bands,
                                      prev_bands, n, gamma))
        prev_bands = band_lo, band_hi

    conv = scheme_convergence(system, [st.samples for st in stages], radii, gamma)
    # a stored 1 is no true: the rebuilt false, or no probe, then differs
    assumption = _assumption(system, config["seed"], cert["assumption"]["checked"] is True)
    want = _certificate(config, system, exact, assumption, gp, tiling, stages, conv)
    _compare(problems, "", cert, want)
    if (out / "summary.txt").read_bytes() != _summary_text(want, len(u_poly.bounds)).encode():
        problems.append("summary.txt")
    return 0 if want["verdict"] == "pass" else 2


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
