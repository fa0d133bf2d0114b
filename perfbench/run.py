"""Benchmark of ordercomplete: run -> verify -> enclose on seeded workloads.

    python3 perfbench/run.py --workload ode1d_batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The package is imported from `src/` of
that checkout. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. `--smoke` runs
one tiny problem through both passes and checks that every metric named in
BENCHMARK.json is printed with its unit. WORKLOADS.md explains the
workloads and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    import problems

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(problems.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check the harness on one tiny problem")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordercomplete" / "__init__.py").is_file():
        print(f"perfbench: no ordercomplete package under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: the load runs in this single process, pinned
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness
    import problems

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.smoke:
            return smoke(harness, problems, work)
        session = harness.Session(ROOT, problems.WORKLOADS[args.workload], args.seed,
                                  args.seconds, work)
        result = run_pass(harness, session, bool(args.trace))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_pass(harness, session, trace: bool) -> dict:
    env = harness.environment(ROOT, session.workload.name, session.seed, trace)
    print("env: " + json.dumps(env, sort_keys=True))
    if trace:
        metrics, lines = session.trace(harness.Tracer())
    else:
        metrics, lines = session.measure()
    for line in lines:
        print(line)
    ledger = session.ledger
    for note in ledger.notes:
        print(f"failed: {note}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    return {"correct": not ledger.wrong, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def smoke(harness, problems, work: Path) -> int:
    """Both passes on one tiny problem; every BENCHMARK.json metric must be
    printed with its unit, and the shim must have wrapped the `from .x
    import y` bindings that patching only the defining module would miss."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        session = harness.Session(ROOT, problems.SMOKE, 0, 0.0, work / key)
        result = run_pass(harness, session, trace)
        print(json.dumps(result))
        if not result["correct"] or result["failed"]:
            errors.append(f"{key}: smoke problem failed the correctness gate")
        for m in spec[key]:
            got = result["metrics"].get(m["name"])
            if got is None:
                errors.append(f"{key}: metric {m['name']} not printed")
            elif got["unit"] != m["unit"]:
                errors.append(f"{key}: metric {m['name']} unit {got['unit']!r}, "
                              f"BENCHMARK.json says {m['unit']!r}")
        extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            errors.append(f"{key}: metrics missing from BENCHMARK.json: {sorted(extra)}")
    errors.extend(check_shim(harness))
    errors.extend(check_skeleton(harness, work / "end_to_end"))
    for e in errors:
        print(f"smoke: {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 0 if not errors else 1


def check_shim(harness) -> list[str]:
    expected = {"pde.apply_operator": {"pde", "solver", "cli"},
                "jets._classify_grid": {"jets", "pde", "solver", "cli"},
                "jets.sample_component": {"jets", "cli"}}
    tracer = harness.Tracer()
    try:
        sites = tracer.install()
    finally:
        tracer.uninstall()
    errors = []
    for span, want in expected.items():
        got = {site for s, site in sites if s == span}
        if not want <= got:
            errors.append(f"shim wrapped {span} in {sorted(got)}, not in {sorted(want - got)}")
    return errors


def check_skeleton(harness, work: Path) -> list[str]:
    """The enclosure's skeleton must be the one `assemble` marks."""
    from ordercomplete import jets

    cert_path = next(work.glob("out/*/certificate.json"))
    cert = json.loads(cert_path.read_text())
    _, domain = harness.final_stage_domain(cert)
    poly = jets.read_poly_json(cert_path.parent / cert["stages"][-1]["file"])
    bare = domain.with_skeleton(domain.skeleton & False)
    _, marked = jets.assemble(poly.cells, poly.polys, bare)
    if (marked.skeleton != domain.skeleton).any():
        return ["enclosure skeleton differs from the one assemble marks"]
    return []


if __name__ == "__main__":
    raise SystemExit(main())
