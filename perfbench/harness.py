"""Measurement loop, correctness gate and report of the ordercomplete benchmark.

Each problem goes through what a user waits for: `ordercomplete run`,
`ordercomplete verify` on its output, and an interval enclosure of the
operator image over the final stage's bands (`interval_pushforward`). The
CLI is driven in this process through `cli.main`, so one process carries the
whole load and its peak memory is the workload's. Set-up (a fresh
interpreter importing the package and loading the specs) is timed in child
interpreters, because every CLI call pays it.

Import this module only after the BLAS thread variables are pinned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from ordercomplete import analysis, cli, jets
from ordercomplete import expr as ex
from ordercomplete.grids import GridDomain, GridFunction, OrderInterval, skeleton_fill
from ordercomplete.pde import PdeSystem

import problems as pb
import speed
from tracing import COUNTED, SPANS, SpanStat, Tracer

SETUP_REPEATS = 3
ENCLOSE_REPEATS = 11
# Timings are scaled to the speed at which the kernels of speed.py take
# REFERENCE_INTERP_S and REFERENCE_NUMPY_S (about their medians on the
# 2-core Xeon the benchmark was tuned on). The speed of that shared host
# drifts by a quarter or more within seconds and between runs; a SpeedProbe
# times the kernels right before and after `run` and `verify`, and every
# PROBE_INTERVAL_S during them, and before each enclosure call, to measure
# it. Measured in runs of each workload, `run` and `verify` follow the
# geometric mean of the two kernels' slowdowns (the 1D problems are
# interpreter-bound, the 2D ones lean on numpy), and the enclosure
# (pure-Python interval arithmetic) and set-up (imports) follow the
# interpreter kernel. Sampling during `run` and `verify`, not only around
# them, took the spread of repeated 2D runs from about 0.14 to 0.05; the
# enclosure calls, 0.01 to 0.1 s each, are too short for that.
REFERENCE_INTERP_S = 0.0033
REFERENCE_NUMPY_S = 0.007
PROBE_INTERVAL_S = 0.2
CONTAINMENT_POINTS = 24
# spans a workload need not reach: pde2d_coarse writes no CSV samples
MAY_BE_IDLE = {"pde2d_coarse": {"grids.write_csv"}}

# argv: perfbench dir, src dir, spec files. Prints the interpreter kernel's
# median before and after the imports, and the seconds spent in those
# kernel samples.
_SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import speed\n"
    "t0 = time.perf_counter()\n"
    "k0 = speed.interpreter_median()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import ordercomplete.cli as c\n"
    "for p in sys.argv[3:]:\n"
    "    c.load_spec(p)\n"
    "t2 = time.perf_counter()\n"
    "k1 = speed.interpreter_median()\n"
    "print(k0, k1, t1 - t0 + time.perf_counter() - t2)\n"
)


class SpeedProbe:
    """Times the reference kernels in and around the timed steps of the load."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._step: list[tuple[float, float]] = []
        self._paused = 0.0  # seconds the step spent in its kernel samples

    def sample(self) -> tuple[float, float]:
        """The kernels' (interpreter, numpy) times, taken now."""
        got = (speed.interpreter_kernel(), speed.numpy_kernel())
        self.samples.append(got)
        return got

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._step.append(self.sample())
        self._paused += time.perf_counter() - t0

    def timed(self, fn, *args):
        """(fn(*args), its wall time less the kernel samples taken during it,
        the mean (interpreter, numpy) kernel times over the samples taken
        before, during and after it).
        The samples during the step run from a SIGALRM handler, which Python
        calls between bytecodes of the step, on the same core."""
        self._step = [self.sample()]
        self._paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0 - self._paused
            signal.signal(signal.SIGALRM, previous)
        self._step.append(self.sample())
        return result, elapsed, (statistics.fmean(i for i, _ in self._step),
                                 statistics.fmean(n for _, n in self._step))


def timed(probe: SpeedProbe | None, fn, *args):
    """probe.timed(fn, *args), or the wall time and the reference kernel
    times (no scaling) without a probe."""
    if probe is not None:
        return probe.timed(fn, *args)
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0, (REFERENCE_INTERP_S, REFERENCE_NUMPY_S)


def slowness(kernels: tuple[float, float]) -> float:
    """Geometric mean of how much slower than at reference speed the
    (interpreter, numpy) kernels ran."""
    return math.sqrt(kernels[0] / REFERENCE_INTERP_S * kernels[1] / REFERENCE_NUMPY_S)


class GateFailure(Exception):
    """An outcome that failed the correctness gate. wrong_output marks a
    failure that is wrong even for a control that need only not crash."""

    def __init__(self, message: str, wrong_output: bool = False) -> None:
        super().__init__(message)
        self.wrong_output = wrong_output


@dataclass
class Measured:
    """Timings of one problem that passed the gate: run_s, verify_s and
    enclose_s at reference speed when a SpeedProbe was given, raw_s the
    wall times of the three steps (less the kernel samples taken during
    them), wall_s the elapsed time of the solve."""

    run_s: float
    verify_s: float
    enclose_s: float
    raw_s: tuple[float, float, float]
    wall_s: float
    final_sup_gap: float
    j_cells: int  # J-cells of the final stage
    cert: bytes
    out_dir: Path

    def line(self, name: str) -> str:
        run, verify, enclose = self.raw_s
        return (f"{name}: run {run:.4f} s, verify {verify:.4f} s, enclose "
                f"{enclose:.4f} s wall; {self.run_s:.4f}, {self.verify_s:.4f}, "
                f"{self.enclose_s:.4f} s at reference speed; "
                f"final J-cells {self.j_cells}")


@dataclass
class Ledger:
    """Outcomes of one benchmark invocation. Every failure counts in
    `failed`; all but a tolerated one (a crash or undocumented exit code of
    a control whose outcome need only be documented, as the overflow
    control's is today) also make the invocation incorrect."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, error: GateFailure | None,
               tolerated: bool = False) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        self.notes.append(f"{name}: {error}")
        if error.wrong_output or not tolerated:
            self.wrong.append(name)


# ---------------------------------------------------------------------------
# driving the CLI


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as e:  # a traceback is a failed outcome, not the end of the run
        last = traceback.format_exception_only(type(e), e)[-1].strip()
        raise GateFailure(f"traceback in `{argv[0]}`: {last}") from e
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# the enclosure step


def _index_ranges(axis: np.ndarray, lo: float, hi: float, tol: float):
    """(closed index slice, face indices) of [lo, hi] on one lattice axis."""
    first = int(np.searchsorted(axis, lo - tol, "left"))
    stop = int(np.searchsorted(axis, hi + tol, "right"))
    faces = [i for i in (first, stop - 1)
             if first <= i < stop and min(abs(axis[i] - lo), abs(axis[i] - hi)) <= tol]
    return slice(first, stop), faces


def cell_skeleton(cells, domain: GridDomain) -> np.ndarray:
    """Lattice points on a face of any cell: the skeleton `assemble` marks."""
    tol = 1e-9 * (domain.hi - domain.lo)
    axes = [domain.axis(d) for d in range(domain.ndim)]
    skel = np.zeros(domain.shape, dtype=bool)
    for c in cells:
        ranges = [_index_ranges(axes[d], c["lo"][d], c["hi"][d], tol[d])
                  for d in range(domain.ndim)]
        closed = [r[0] for r in ranges]
        for d, (_, faces) in enumerate(ranges):
            for i in faces:
                skel[tuple(closed[:d] + [i] + closed[d + 1:])] = True
    return skel


def band_intervals(cert: dict, system: PdeSystem, domain: GridDomain):
    """Final-stage band order intervals, one per flat jet variable, painted
    per I-cell and completed across the skeleton by the normalize rule."""
    stage = cert["stages"][-1]
    band_lo = np.asarray(stage["band_lo"], dtype=float)
    band_hi = np.asarray(stage["band_hi"], dtype=float)
    tol = 1e-9 * (domain.hi - domain.lo)
    axes = [domain.axis(d) for d in range(domain.ndim)]
    lo = np.zeros((band_lo.shape[1],) + domain.shape)
    hi = np.zeros_like(lo)
    for ci, c in enumerate(cert["tiling"]["i_cells"]):
        box = (slice(None),) + tuple(
            _index_ranges(axes[d], c["lo"][d], c["hi"][d], tol[d])[0]
            for d in range(domain.ndim))
        shape = (-1,) + (1,) * domain.ndim
        lo[box] = band_lo[ci].reshape(shape)
        hi[box] = band_hi[ci].reshape(shape)
    return [OrderInterval(
        GridFunction(domain, skeleton_fill(domain, lo[k]), normalized=True),
        GridFunction(domain, skeleton_fill(domain, hi[k]), normalized=True))
        for k in range(len(system.flat_vars()))]


def final_stage_domain(cert: dict) -> tuple[PdeSystem, GridDomain]:
    prob = cert["problem"]
    system = PdeSystem(prob["n"], prob["K"], prob["m"], prob["F"], prob["f"],
                       prob["box_lo"], prob["box_hi"])
    bare = GridDomain(prob["box_lo"], prob["box_hi"], cert["config"]["grid"])
    cells = [c for cs in cert["stages"][-1]["j_cells"] for c in cs]
    return system, bare.with_skeleton(cell_skeleton(cells, bare))


def check_containment(out_dir: Path, cert: dict, system: PdeSystem,
                      domain: GridDomain, image, seed: int) -> None:
    """T V_N at interior points of sampled final J-cells lies in the enclosure."""
    stage = cert["stages"][-1]
    poly = jets.read_poly_json(out_dir / stage["file"])
    tol = 1e-9 * (domain.hi - domain.lo)
    axes = [domain.axis(d) for d in range(domain.ndim)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(poly.cells), size=min(CONTAINMENT_POINTS, len(poly.cells)),
                       replace=False)
    for ci in sorted(int(c) for c in picks):
        cell = poly.cells[ci]
        idx = []
        for d in range(domain.ndim):
            a = int(np.searchsorted(axes[d], cell.lo[d] + tol[d], "right"))
            b = int(np.searchsorted(axes[d], cell.hi[d] - tol[d], "left"))
            if a >= b:
                break
            idx.append((a + b - 1) // 2)
        else:
            x = np.array([axes[d][i] for d, i in enumerate(idx)])
            jv = {(i, a): jets.deriv_eval(poly.polys[ci][i - 1], a, x)
                  for i, a in system.flat_vars()}
            for j, Fj in enumerate(system.F):
                v = ex.eval_point(Fj, x, jv)
                lo = image[j].lower.values[tuple(idx)]
                hi = image[j].upper.values[tuple(idx)]
                slack = 1e-9 * max(1.0, abs(v))
                if not lo - slack <= v <= hi + slack:
                    raise GateFailure(
                        f"enclosure [{lo!r}, {hi!r}] misses T V = {v!r} at "
                        f"lattice point {tuple(idx)}", wrong_output=True)


# ---------------------------------------------------------------------------
# one problem


def solve(problem: pb.Problem, spec: Path, out_dir: Path, check: bool,
          reference: bytes | None = None, enclose_repeats: int = 1,
          probe: SpeedProbe | None = None) -> Measured:
    """run -> verify -> enclose with the correctness gate; raises GateFailure.

    With a reference, the certificate must equal it byte for byte (a re-run
    of the same problem, traced or not). The enclosure is short, so its time
    is the median of `enclose_repeats` calls. With a probe, `run` and
    `verify` are scaled by the kernel times taken in and around them, and
    each enclosure call by the interpreter kernel timed just before it."""
    t_start = time.perf_counter()
    (code, text), run_s, k_run = timed(probe, call_cli, problem.run_args(spec, out_dir))
    if code != 0:
        tail = text.strip().splitlines()[-1] if text.strip() else ""
        raise GateFailure(f"run exit {code}, expected 0: {tail}")
    cert_bytes = (out_dir / "certificate.json").read_bytes()
    if reference is not None and cert_bytes != reference:
        raise GateFailure("certificate differs from an earlier run of the same "
                          "problem (non-deterministic)", wrong_output=True)
    (code, text), verify_s, k_verify = timed(probe, call_cli, ["verify", str(out_dir)])
    if code != 0 or "all certificates reproduce" not in text:
        tail = text.strip().splitlines()[-1] if text.strip() else ""
        raise GateFailure(f"verify exit {code}: {tail}", wrong_output=True)
    cert = json.loads(cert_bytes)
    system, domain = final_stage_domain(cert)
    intervals = band_intervals(cert, system, domain)
    raw, scaled = [], []
    for _ in range(enclose_repeats):
        k_interp = probe.sample()[0] if probe else REFERENCE_INTERP_S
        t0 = time.perf_counter()
        image = analysis.interval_pushforward(system, intervals, domain)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * REFERENCE_INTERP_S / k_interp)
    wall_s = time.perf_counter() - t_start
    if check:
        check_containment(out_dir, cert, system, domain, image, problem.seed)
    return Measured(
        run_s / slowness(k_run),
        verify_s / slowness(k_verify),
        statistics.median(scaled),
        (run_s, verify_s, statistics.median(raw)), wall_s,
        float(cert["order_convergence"]["final_sup_gap"]),
        sum(len(cs) for cs in cert["stages"][-1]["j_cells"]),
        cert_bytes, out_dir)


def control(problem: pb.Problem, spec: Path, out_dir: Path) -> None:
    """Controls must end with their documented exit code and never crash."""
    code, _ = call_cli(problem.run_args(spec, out_dir))
    if problem.expect == pb.EXPECT_UNSOLVABLE:
        if code == 0:
            raise GateFailure("certified an unsolvable problem", wrong_output=True)
        if code != 3:
            raise GateFailure(f"exit {code}, expected 3")
        return
    if code not in (0, 2, 3):
        raise GateFailure(f"exit {code} is not a documented exit code")
    if code in (0, 2):
        vcode, text = call_cli(["verify", str(out_dir)])
        if vcode != code or "all certificates reproduce" not in text:
            raise GateFailure(f"verify exit {vcode} does not reproduce run exit {code}",
                              wrong_output=True)


# ---------------------------------------------------------------------------
# reporting


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    q = (100 * (n - 10)) // n if n > 10 else 0
    if q <= 50:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return q, cuts[q - 1]


def describe(name: str, samples: list[float], unit: str) -> str:
    med = statistics.median(samples)
    line = f"{name}: median {med:.6g} {unit} (n={len(samples)})"
    tail = tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return line


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return got.stdout.strip() or "unknown"


def environment(root: Path, workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": git_commit(root),
        "threads": {v: os.environ[v] for v in sorted(os.environ)
                    if v.endswith("_NUM_THREADS")},
    }


# per-problem samples of the untraced pass; wall_s is run + verify + enclose
_E2E_SAMPLES = ("run_s", "verify_s", "enclose_s", "wall_s", "final_sup_gap")


def family_median(by_family: dict[str, list[float]]) -> float:
    """Mean over problem families of each family's median, so that how many
    problems of each family a run solves does not move the figure."""
    return statistics.fmean(statistics.median(v) for v in by_family.values())


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# the two passes


class Session:
    """One benchmark invocation: its inputs, its work directory, its ledger."""

    def __init__(self, root: Path, workload: pb.Workload, seed: int,
                 seconds: float, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.solves = workload.solves(seconds)
        self.traced = workload.traced(seconds)
        self.work = work
        self.ledger = Ledger()
        self.probe = SpeedProbe()
        self.problems = workload.problems(seed, max(self.solves - 1, self.traced))
        self.controls = workload.control_problems(seed)
        spec_dir = work / "specs"
        spec_dir.mkdir(parents=True)
        self.specs = {}
        for p in self.problems + self.controls:
            path = spec_dir / f"{p.name}.spec"
            path.write_text(p.spec)
            self.specs[p.name] = path

    def out(self, name: str) -> Path:
        return self.work / "out" / name

    def measure_setup(self) -> tuple[list[float], list[float]]:
        """Set-up times of fresh interpreters, at reference speed and raw:
        each child's wall time less its kernel samples, scaled by the
        interpreter kernel it timed before and after its imports. This
        process has imported the package, so the bytecode and page caches
        are warm for every child alike."""
        cmd = [sys.executable, "-c", _SETUP_SNIPPET, str(Path(__file__).parent),
               str(self.root / "src"),
               *(str(p) for p in self.specs.values())]
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            got = subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=170)
            wall = time.perf_counter() - t0
            k_before, k_after, in_kernels = map(float, got.stdout.split())
            raw.append(wall - in_kernels)
            scaled.append(raw[-1] * 2 * REFERENCE_INTERP_S / (k_before + k_after))
        return scaled, raw

    def run_controls(self) -> None:
        for p in self.controls:
            try:
                control(p, self.specs[p.name], self.out(p.name))
                error = None
            except GateFailure as e:
                error = e
            self.ledger.record(p.name, error, tolerated=p.expect == pb.EXPECT_DOCUMENTED)

    def attempt(self, name: str, fn, *args):
        try:
            result = fn(*args)
        except GateFailure as e:
            self.ledger.record(name, e)
            return None
        self.ledger.record(name, None)
        return result

    def measure(self) -> tuple[dict, list[str]]:
        """Untraced pass: every end-to-end metric."""
        setup, setup_raw = self.measure_setup()
        self.run_controls()
        samples: dict[str, dict[str, list[float]]] = {k: {} for k in _E2E_SAMPLES}
        lines = []
        reference = None
        # the first problem runs twice: the second certificate must be identical
        batch = self.problems[:self.solves - 1]
        for i, p in enumerate([batch[0], *batch]):
            name = f"{p.name}#{i}"
            m = self.attempt(name, solve, p, self.specs[p.name],
                             self.out(f"{i:02d}_{p.name}"), True, reference,
                             ENCLOSE_REPEATS, self.probe)
            if m is not None:
                lines.append(m.line(name))
                for key, value in zip(_E2E_SAMPLES, (
                        m.run_s, m.verify_s, m.enclose_s,
                        m.run_s + m.verify_s + m.enclose_s, m.final_sup_gap)):
                    samples[key].setdefault(p.family, []).append(value)
            reference = m.cert if i == 0 and m is not None else None
        if not samples["run_s"]:
            raise RuntimeError("no problem passed the correctness gate")
        lines.append(describe("setup_s", setup, "s") + " at reference speed; "
                     + describe("raw", setup_raw, "s") + " wall")
        for key, by_family in samples.items():
            unit = "1" if key == "final_sup_gap" else "s"
            lines.extend(describe(f"{key}[{f}]", v, unit) for f, v in by_family.items())
        interp, numeric = zip(*self.probe.samples)
        lines.append(f"reference kernels (n={len(interp)}): interpreter median "
                     f"{statistics.median(interp):.6g} s (reference {REFERENCE_INTERP_S}), "
                     f"numpy median {statistics.median(numeric):.6g} s "
                     f"(reference {REFERENCE_NUMPY_S})")
        ledger = self.ledger
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "run_s": metric(family_median(samples["run_s"]), "s"),
            "verify_s": metric(family_median(samples["verify_s"]), "s"),
            "enclose_s": metric(family_median(samples["enclose_s"]), "s"),
            "problems_per_min": metric(60.0 / family_median(samples["wall_s"]), "1/min"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": metric((ledger.attempted - ledger.failed) / ledger.attempted,
                               "ratio"),
            "final_sup_gap": metric(family_median(samples["final_sup_gap"]), "1"),
        }
        return metrics, lines

    def trace(self, tracer: Tracer) -> tuple[dict, list[str]]:
        """Traced pass: each problem untraced, then traced; per-layer metrics
        are means per traced problem."""
        self.run_controls()
        per_problem: list[tuple[dict[str, SpanStat], dict[str, float], float]] = []
        overheads, coverages = [], []
        artifact_bytes = []
        sites: list[tuple[str, str]] = []
        for p in self.problems[:self.traced]:
            plain = self.attempt(p.name, solve, p, self.specs[p.name],
                                 self.out(p.name), True)
            traced = None
            if plain is not None:
                sites = tracer.install()
                try:
                    before = tracer.snapshot()
                    traced = self.attempt(f"{p.name}_traced", solve, p, self.specs[p.name],
                                          self.out(p.name + "_traced"), False, plain.cert)
                    after = tracer.snapshot()
                finally:
                    tracer.uninstall()
            if traced is not None:
                stats = {k: _sub(v, before[0].get(k)) for k, v in after[0].items()}
                counters = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
                per_problem.append((stats, counters, traced.wall_s))
                overheads.append(traced.wall_s - plain.wall_s)
                coverages.append(sum(s.self_s for s in stats.values()) / traced.wall_s)
                artifact_bytes.append(sum(f.stat().st_size for f in plain.out_dir.rglob("*")
                                          if f.is_file()))
        if not per_problem:
            raise RuntimeError("no problem passed the correctness gate when traced")
        idle = self._idle_spans(per_problem, tracer.missing)
        self.ledger.record("trace_coverage", GateFailure(
            f"shim saw no calls to {', '.join(sorted(idle))}", wrong_output=True)
            if idle else None)
        metrics = layer_metrics(per_problem, overheads, coverages, artifact_bytes)
        lines = layer_report(per_problem, sites, tracer)
        return metrics, lines

    def _idle_spans(self, per_problem, missing: set[str]) -> set[str]:
        called = {k for stats, _, _ in per_problem for k, s in stats.items() if s.calls}
        expected = {f"{m}.{f}" for m, f in SPANS + COUNTED} - missing
        return expected - called - MAY_BE_IDLE.get(self.workload.name, set())


def _sub(after: SpanStat, before: SpanStat | None) -> SpanStat:
    if before is None:
        return after
    return SpanStat(after.calls - before.calls, after.self_s - before.self_s,
                    after.failures - before.failures)


# per-layer metrics: (span name + suffix, unit, SpanStat field)
_SPAN_METRICS = (
    ("pde.check_assumption_open.calls", "count", "calls"),
    ("pde.check_assumption_open.s", "s", "self_s"),
    ("expr.eval_point.calls", "count", "calls"),
    ("jets.assemble.calls", "count", "calls"),
    ("jets.assemble.s", "s", "self_s"),
    ("jets._classify_grid.calls", "count", "calls"),
    ("jets._classify_grid.s", "s", "self_s"),
    ("jets.sample_component.calls", "count", "calls"),
    ("jets.sample_component.s", "s", "self_s"),
    ("pde.apply_operator.calls", "count", "calls"),
    ("pde.apply_operator.s", "s", "self_s"),
    ("expr.eval_on_arrays.calls", "count", "calls"),
    ("solver.jet_solve.calls", "count", "calls"),
    ("solver.jet_solve.s", "s", "self_s"),
    ("solver.jet_solve.failures", "count", "failures"),
    ("solver.refine.s", "s", "self_s"),
    ("solver.global_pair.s", "s", "self_s"),
    ("solver.tile_domain.s", "s", "self_s"),
    ("solver.run_scheme.s", "s", "self_s"),
    ("grids.write_csv.calls", "count", "calls"),
    ("grids.write_csv.s", "s", "self_s"),
    ("jets.write_poly_json.s", "s", "self_s"),
    ("jets.read_poly_json.s", "s", "self_s"),
    ("cli.verify.s", "s", "self_s"),
    ("grids.order_convergence_check.s", "s", "self_s"),
    ("grids.skeleton_fill.s", "s", "self_s"),
    ("analysis.interval_pushforward.s", "s", "self_s"),
    ("expr.eval_interval.calls", "count", "calls"),
    ("analysis.nested_limit_check.s", "s", "self_s"),
    ("analysis.compare_reference.s", "s", "self_s"),
    ("cli.run_pipeline.s", "s", "self_s"),
    ("cli.load_spec.s", "s", "self_s"),
)
_COUNTER_METRICS = (
    ("jets._classify_grid.cell_points", "count"),
    ("expr.eval_on_arrays.elems", "count"),
    ("solver.refine.j_cells", "count"),
    ("solver.global_pair.cells", "count"),
    ("grids.write_csv.bytes", "B"),
)


def layer_metrics(per_problem, overheads, coverages, artifact_bytes) -> dict:
    n = len(per_problem)

    def mean_stat(span: str, attr: str) -> float:
        return sum(getattr(s.get(span, SpanStat()), attr) for s, _, _ in per_problem) / n

    def mean_counter(name: str) -> float:
        return sum(c.get(name, 0) for _, c, _ in per_problem) / n

    out = {}
    for name, unit, attr in _SPAN_METRICS:
        out[name] = metric(mean_stat(name.rsplit(".", 1)[0], attr), unit)
    for name, unit in _COUNTER_METRICS:
        out[name] = metric(mean_counter(name), unit)
    solves = sum(c.get("solver.anchor_solves", 0) for _, c, _ in per_problem)
    accepted = sum(c.get("solver.accepted_cells", 0) for _, c, _ in per_problem)
    out["solver.cell_accept_ratio"] = metric(accepted / solves if solves else 0.0, "ratio")
    out["cli.artifact_bytes"] = metric(statistics.mean(artifact_bytes), "B")
    out["trace.overhead_s"] = metric(statistics.mean(overheads), "s")
    out["trace.self_share"] = metric(statistics.mean(coverages), "ratio")
    return out


def layer_report(per_problem, sites, tracer: Tracer) -> list[str]:
    """Self-time table of the traced problems, and the calls through each
    binding the shim wrapped."""
    total_wall = sum(w for _, _, w in per_problem)
    totals: dict[str, SpanStat] = {}
    for stats, _, _ in per_problem:
        for k, s in stats.items():
            t = totals.setdefault(k, SpanStat())
            t.calls += s.calls
            t.self_s += s.self_s
    lines = [f"traced problems: {len(per_problem)}, traced wall {total_wall:.4f} s"]
    for k, s in sorted(totals.items(), key=lambda kv: -kv[1].self_s):
        lines.append(f"  {k:36s} calls {s.calls:9d}  self {s.self_s:9.4f} s "
                     f"({100.0 * s.self_s / total_wall:5.1f}%)")
    bound: dict[str, list[str]] = {}
    for span, site in sites:
        calls = tracer.site_calls.get((span, site), 0)
        bound.setdefault(span, []).append(f"{site} ({calls} calls)")
    for span in sorted(bound):
        lines.append(f"  wrapped {span} in {', '.join(bound[span])}")
    for span in sorted(tracer.missing):
        lines.append(f"  not found: {span}")
    return lines
