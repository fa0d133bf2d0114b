"""Seeded problem generators and the workload table.

Every solvable problem is manufactured: a smooth `exact` solution is drawn
from a narrow seeded family and the right-hand side is the operator applied
to it, written out symbolically. So every generated problem has a solution
and the program should certify it (exit 0). The controls are fixed-shape
specs whose documented outcome is known in advance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

EXPECT_PASS = "pass"            # exit 0, verify reproduces every certificate
EXPECT_UNSOLVABLE = "unsolvable"  # exit 3, construction failure
EXPECT_DOCUMENTED = "documented"  # any documented exit code (0, 2, 3), no crash
GAMMA = 0.2  # the CLI's --gamma for every problem
TRACED_COST = 2.5  # a traced run's time per problem, in untraced solves


@dataclass(frozen=True)
class Problem:
    name: str
    family: str
    spec: str
    stages: int
    seed: int
    samples: bool
    expect: str = EXPECT_PASS

    def run_args(self, spec_path, out_dir) -> list[str]:
        args = ["run", str(spec_path), "--gamma", repr(GAMMA),
                "--stages", str(self.stages), "--seed", str(self.seed),
                "--out", str(out_dir)]
        if not self.samples:
            args.append("--no-samples")
        return args


def _num(r: random.Random, lo: float, hi: float) -> str:
    return repr(round(r.uniform(lo, hi), 3))


def _spec(n: int, K: int, m: int, box_lo: str, box_hi: str, grid: int,
          F: list[str], f: list[str], exact: list[str] | None) -> str:
    lines = [f"n = {n}", f"K = {K}", f"m = {m}",
             f"box.lo = {box_lo}", f"box.hi = {box_hi}", f"grid = {grid}"]
    for j in range(K):
        lines.append(f"F{j + 1} = {F[j]}")
        lines.append(f"f{j + 1} = {f[j]}")
        if exact is not None:
            lines.append(f"exact{j + 1} = {exact[j]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# 1D families on [0, 3], grid 512 (u = A sin(w x + p)). As in 2D, the J-cell
# count follows the solution's shape: with A in [0.6, 1], w in [0.8, 1.2]
# and p in [0, 0.5] it spans 40 to 135 final J-cells within a family, with
# the narrower ranges below 57 to 79.


def _wave(r: random.Random) -> tuple[str, str, str]:
    return _num(r, 0.78, 0.82), _num(r, 0.97, 1.03), _num(r, 0.2, 0.3)


def ode_cubic(r: random.Random) -> str:
    """u' + u^3 = f, the ROADMAP W1 family."""
    A, w, p = _wave(r)
    u = f"{A}*sin({w}*x1 + {p})"
    du = f"{A}*{w}*cos({w}*x1 + {p})"
    return _spec(1, 1, 1, "0", "3", 512, ["u[1,(1)] + u[1,(0)]^3"],
                 [f"{du} + ({u})^3"], [u])


def ode_second_order(r: random.Random) -> str:
    """u'' + u' + u^3 = f (order m = 2)."""
    A, w, p = _wave(r)
    u = f"{A}*sin({w}*x1 + {p})"
    du = f"{A}*{w}*cos({w}*x1 + {p})"
    ddu = f"{A}*{w}^2*sin({w}*x1 + {p})"
    return _spec(1, 1, 2, "0", "3", 512, ["u[1,(2)] + u[1,(1)] + u[1,(0)]^3"],
                 [f"{du} - {ddu} + ({u})^3"], [u])


def ode_coupled(r: random.Random) -> str:
    """Coupled first-order system: u1' + u2 = f1, u2' - u1 + u2^3 = f2."""
    A, w, p = _wave(r)
    B, v, q = _wave(r)
    u1 = f"{A}*sin({w}*x1 + {p})"
    du1 = f"{A}*{w}*cos({w}*x1 + {p})"
    u2 = f"{B}*cos({v}*x1 + {q})"
    du2 = f"{B}*{v}*sin({v}*x1 + {q})"
    return _spec(1, 2, 1, "0", "3", 512,
                 ["u[1,(1)] + u[2,(0)]", "u[2,(1)] - u[1,(0)] + u[2,(0)]^3"],
                 [f"{du1} + {u2}", f"-{du2} - {u1} + ({u2})^3"], [u1, u2])


# ---------------------------------------------------------------------------
# 2D family on [0, 1]^2: u_x + u_y + u^3 = f with u = A sin(w x1 + p) +
# B sin(v x2 + q), a seeded jitter of the ROADMAP W2 solution (A = B = w =
# v = 1, p = q = 0). The J-cell count, and with it the run time on fine
# lattices, jumps with the solution's curvature: with A, w in [0.95, 1.05]
# stage 1 needs 256 to 511 cells, with the 1% jitter below, 361 to 397.


def pde_transport(grid: int) -> Callable[[random.Random], str]:
    def make(r: random.Random) -> str:
        A, w, p = _num(r, 0.99, 1.01), _num(r, 0.99, 1.01), _num(r, 0.0, 0.02)
        B, v, q = _num(r, 0.99, 1.01), _num(r, 0.99, 1.01), _num(r, 0.0, 0.02)
        u = f"{A}*sin({w}*x1 + {p}) + {B}*sin({v}*x2 + {q})"
        ux = f"{A}*{w}*cos({w}*x1 + {p})"
        uy = f"{B}*{v}*cos({v}*x2 + {q})"
        return _spec(2, 1, 1, "0 0", "1 1", grid,
                     ["u[1,(1,0)] + u[1,(0,1)] + u[1,(0,0)]^3"],
                     [f"{ux} + {uy} + ({u})^3"], [u])
    make.__name__ = f"pde_transport_{grid}"
    return make


# ---------------------------------------------------------------------------
# robustness controls


def unsolvable_control(r: random.Random) -> str:
    """F = u^2 has image [0, inf) but the target is negative: exit 3."""
    return _spec(1, 1, 1, "0", "1", 64, ["u[1,(0)]^2"],
                 [f"-{_num(r, 0.5, 2.0)}"], None)


def overflow_control(r: random.Random) -> str:
    """The ROADMAP robustness spec: exp(u^3) overflows in the point
    evaluator. Any documented exit code is acceptable; a crash is not."""
    return _spec(1, 1, 1, "0", "1", 32, ["u[1,(1)] + exp(u[1,(0)]^3)"],
                 ["1 + x1"], None)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[Callable[[random.Random], str], ...]
    stages: int
    samples: bool
    # wall seconds of one untraced problem (run, verify, enclosure and the
    # speed probes next to them) on the 2-core Xeon the benchmark was tuned
    # on; it turns --seconds into a number of problems
    solve_s: float
    controls: tuple[tuple[str, Callable[[random.Random], str], str], ...] = ()

    def solves(self, seconds: float) -> int:
        """Solves in an untraced run of `seconds`, the first problem twice.
        A count, not a deadline, so every run of the workload attempts the
        same outcomes however fast the host is; at least two, for the re-run."""
        return max(2, round(seconds / self.solve_s))

    def traced(self, seconds: float) -> int:
        """Problems in a traced run of `seconds`, each solved untraced and
        traced; at least one."""
        return max(1, round(seconds / (TRACED_COST * self.solve_s)))

    def problems(self, seed: int, count: int) -> list[Problem]:
        """The seeded batch; families alternate so any prefix is balanced."""
        r = random.Random(f"{self.name}:{seed}")
        out = []
        for i in range(count):
            family = self.families[i % len(self.families)]
            out.append(Problem(f"p{i:02d}_{family.__name__}", family.__name__,
                               family(r), self.stages,
                               r.randrange(2**31), self.samples))
        return out

    def control_problems(self, seed: int) -> list[Problem]:
        r = random.Random(f"{self.name}:controls:{seed}")
        return [Problem(name, make.__name__, make(r), self.stages,
                        r.randrange(2**31), self.samples, expect)
                for name, make, expect in self.controls]


WORKLOADS = {
    w.name: w for w in (
        Workload("ode1d_batch", (ode_cubic, ode_second_order, ode_coupled),
                 stages=5, samples=True, solve_s=1.8,
                 controls=(("unsolvable_1d", unsolvable_control, EXPECT_UNSOLVABLE),
                           ("overflow_1d", overflow_control, EXPECT_DOCUMENTED))),
        Workload("pde2d_coarse", (pde_transport(33),), stages=3, samples=False,
                 solve_s=9.5),
        Workload("pde2d_fine", (pde_transport(65),), stages=3, samples=True,
                 solve_s=20.0),
    )
}

# The harness self-check: one tiny problem that still reaches every layer.
SMOKE = Workload("smoke", (ode_cubic,), stages=2, samples=True, solve_s=1.0)
