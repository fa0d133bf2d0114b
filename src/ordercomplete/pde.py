"""PDE systems T_j(x, D)u = F_j(x, u, ..., D^alpha u_i, ...) and their
application to piecewise-polynomial candidates.

The operator acts on jets only; applying it to an assembled candidate
samples each off-skeleton point's jets on its owning cell, evaluates F
there, and completes across the skeleton by the normalize rule, mirroring
the envelope-composed extension of the operator to functions with jumps.

Assumption checks are sampling heuristics. Their verdicts are marked as
evidence and carry witnessed radii; they are never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .grids import GridDomain, GridFunction, skeleton_fill
from .jets import Jet, MultiIndexSet, PiecewisePoly, _lattice_jets


@dataclass(eq=False)
class PdeSystem:
    """Signature (n, K, m), K operator bodies F_j, K right-hand sides f_j, box."""

    n: int
    K: int
    m: int
    F: list[ex.Expr]
    f: list[ex.Expr]
    box_lo: np.ndarray
    box_hi: np.ndarray

    def __init__(self, n, K, m, F, f, box_lo, box_hi) -> None:
        self.n = int(n)
        self.K = int(K)
        self.m = int(m)
        signature = (self.n, self.K, self.m)
        self.F = [ex.parse(e, signature) if isinstance(e, str) else e for e in F]
        self.f = [ex.parse(e, signature) if isinstance(e, str) else e for e in f]
        if len(self.F) != self.K:
            raise ValueError(f"expected {self.K} operator bodies, got {len(self.F)}")
        if len(self.f) != self.K:
            raise ValueError(f"expected {self.K} right-hand sides, got {len(self.f)}")
        for j, rhs in enumerate(self.f, start=1):
            if ex.has_jet_vars(rhs):
                raise ValueError(f"right-hand side f{j} references jet variables")
        self.box_lo = np.asarray(box_lo, dtype=float).copy()
        self.box_hi = np.asarray(box_hi, dtype=float).copy()
        if self.box_lo.size != self.n or self.box_hi.size != self.n:
            raise ValueError("box bounds must match the space dimension")
        if np.any(self.box_hi <= self.box_lo):
            raise ValueError("box must have positive extent")
        self.box_lo.setflags(write=False)
        self.box_hi.setflags(write=False)
        self.mis = MultiIndexSet(self.n, self.m)
        self._jacobian: list[list[ex.Expr]] | None = None
        self._rhs_lattice: dict[tuple, list[np.ndarray]] = {}

    @property
    def unknown_count(self) -> int:
        return self.K * self.mis.count

    def flat_vars(self) -> list[tuple[int, tuple[int, ...]]]:
        """Jet variables in flat order: component-major, graded-lex within."""
        return [(i, a) for i in range(1, self.K + 1) for a in self.mis.alphas]

    def jet_jacobian(self) -> list[list[ex.Expr]]:
        """d F_j / d xi_v for every operator body and flat jet variable.

        Raises NondifferentiableError when some body has no derivative
        expression (abs); callers fall back to derivative-free search.
        """
        if self._jacobian is None:
            fv = self.flat_vars()
            self._jacobian = [[ex.diff_jet(Fj, v) for v in fv] for Fj in self.F]
        return self._jacobian

    def rhs_at(self, x) -> np.ndarray:
        return np.array([ex.eval_point(fj, x) for fj in self.f])

    def rhs_on_arrays(self, coords: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [ex.eval_on_arrays(fj, coords) for fj in self.f]

    def rhs_on_lattice(self, domain: GridDomain) -> list[np.ndarray]:
        """f_j at every lattice point, one read-only array of the lattice
        shape each; evaluated once per lattice (box and shape, whatever the
        skeleton). A fault raises EvalDomainError and is not remembered."""
        key = (domain.lo.tobytes(), domain.hi.tobytes(), domain.shape)
        if key not in self._rhs_lattice:
            flat = [m.reshape(-1) for m in domain.meshes()]
            arrays = [a.reshape(domain.shape) for a in self.rhs_on_arrays(flat)]
            for a in arrays:
                a.setflags(write=False)
            self._rhs_lattice[key] = arrays
        return list(self._rhs_lattice[key])


def apply_operator_point(sys: PdeSystem, x, jet: Jet) -> np.ndarray:
    """All K operator values at one point for one jet."""
    return np.array([ex.eval_point(Fj, x, jet) for Fj in sys.F])


def apply_operator(
    sys: PdeSystem, v: PiecewisePoly, domain: GridDomain
) -> list[GridFunction]:
    """Sample T_j v on the lattice, one GridFunction per component.

    Off-skeleton points evaluate F on the jets of their owning cell (the
    cell whose index ranges hold the point strictly inside, see
    jets._classify_grid), gathered by owner so that each F_j is one array
    evaluation over all owned points; skeleton points are completed by the
    normalize rule. Outputs are normalized.
    """
    if v.components != sys.K or v.space_dim != sys.n or v.order != sys.m:
        raise ValueError("candidate signature does not match the system")
    idx, pts, derivs = _lattice_jets(v, domain)
    jets = dict(zip(sys.flat_vars(), derivs))
    coords = [pts[:, d] for d in range(sys.n)]
    result = []
    for Fj in sys.F:
        vals = np.zeros(domain.shape)
        vals[idx] = ex.eval_on_arrays(Fj, coords, jets)
        result.append(GridFunction(domain, skeleton_fill(domain, vals), normalized=True))
    return result


# ---------------------------------------------------------------------------
# assumption evidence


@dataclass(frozen=True)
class AssumptionEvidence:
    """Sampling-based verdict; heuristic is always True, this is not a proof."""

    kind: str
    supported: bool
    witnessed_radius: float
    margin_min: float
    directions: int
    samples_used: int
    r_min: float
    note: str = "sampling evidence; not a proof"
    heuristic: bool = True


def _directions(K: int, extra: int, rng: np.random.Generator) -> np.ndarray:
    axes = np.concatenate([np.eye(K), -np.eye(K)], axis=0)
    if extra <= 0:
        return axes
    raw = rng.normal(size=(extra, K))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    raw = raw[norms[:, 0] > 1e-12]
    norms = norms[norms[:, 0] > 1e-12]
    return np.concatenate([axes, raw / norms], axis=0)


def _principal_directions(images: np.ndarray) -> np.ndarray:
    """Principal axes of the sampled image, both signs.

    A degenerate image (curve or point in R^K) is flat along its smallest
    principal axis, so probing it yields a near-zero margin; random
    directions alone can miss that when the flat axis is oblique. The
    reduced SVD gives the same axes without the (S, S) left factor; with
    fewer samples than components the full one keeps all K axes.
    """
    centered = images - images.mean(axis=0)
    full = centered.shape[0] < centered.shape[1]
    _, _, vt = np.linalg.svd(centered, full_matrices=full)
    return np.concatenate([vt, -vt], axis=0)


def _image_margins(images: np.ndarray, target: np.ndarray, dirs: np.ndarray) -> float:
    """min over directions of the farthest image reach past the target."""
    rel = images - target  # (S, K)
    proj = rel @ dirs.T  # (S, D)
    return float(proj.max(axis=0).min())


def _sample_images(sys: PdeSystem, x: Sequence, vecs: np.ndarray) -> np.ndarray:
    """F at a batch of samples, one row each, with one evaluation per F_j.

    x holds the space coordinates, one entry per axis (a scalar or one
    value per sample); vecs holds one flat jet per row. Samples on which
    some F_j faults are dropped: exactly those on which eval_point raises.
    """
    coords = list(x)
    jets = {v: vecs[:, k] for k, v in enumerate(sys.flat_vars())}
    images = np.empty((vecs.shape[0], sys.K))
    kept = np.ones(vecs.shape[0], dtype=bool)
    for j, Fj in enumerate(sys.F):
        try:
            images[:, j] = ex.eval_on_arrays(Fj, coords, jets)
        except ex.EvalDomainError as err:
            if err.faulted is None:
                raise
            images[:, j] = err.values
            kept &= ~err.faulted
    return images[kept]


def _evidence(kind: str, images: np.ndarray, target: np.ndarray,
              extra_directions: int, r_min: float,
              rng: np.random.Generator) -> AssumptionEvidence:
    """Directional ball-containment verdict of target in the sampled image."""
    if images.shape[0] == 0:
        return AssumptionEvidence(
            kind=kind, supported=False, witnessed_radius=0.0,
            margin_min=float("-inf"), directions=0, samples_used=0, r_min=r_min,
        )
    dirs = _directions(images.shape[1], extra_directions, rng)
    dirs = np.concatenate([dirs, _principal_directions(images)], axis=0)
    margin = _image_margins(images, target, dirs)
    return AssumptionEvidence(
        kind=kind,
        supported=margin > r_min,
        witnessed_radius=max(margin, 0.0),
        margin_min=margin,
        directions=dirs.shape[0],
        samples_used=images.shape[0],
        r_min=r_min,
    )


def check_assumption_interior(
    sys: PdeSystem,
    x,
    trial_box: np.ndarray,
    samples: int = 400,
    extra_directions: int = 32,
    r_min: float = 1e-6,
    rng: np.random.Generator | None = None,
) -> AssumptionEvidence:
    """Evidence that f(x) lies in the interior of {F(x, xi) : xi in trial_box}.

    Ball containment is probed along the 2K axis directions plus random
    ones; support requires every directional margin to exceed r_min.
    """
    rng = rng or np.random.default_rng(0)
    box = np.asarray(trial_box, dtype=float)
    if box.shape != (sys.unknown_count, 2):
        raise ValueError("trial box must have shape (M, 2)")
    x = np.asarray(x, dtype=float)
    target = sys.rhs_at(x)
    vecs = rng.uniform(box[:, 0], box[:, 1], size=(samples, box.shape[0]))
    images = _sample_images(sys, x, vecs)
    return _evidence("interior", images, target, extra_directions, r_min, rng)


def _unit_ball_draws(
    rng: np.random.Generator, dims: Sequence[int], samples: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Uniform draws from unit balls of the given dimensions.

    Sample by sample and ball by ball, draws a standard normal direction
    and, unless its norm is below 1e-12, a uniform radius u. Returns per
    ball the unit directions (S, d) and the radial factors u^(1/d) (S,);
    both are 0 where the direction vanished, so that point is the center.
    Norms and roots round as np.linalg.norm and Python's pow do on one
    draw; numpy's row reductions and power can round differently.
    """
    balls = [(d, 1.0 / d, [], []) for d in dims]
    for _ in range(samples):
        for d, inv, normals, roots in balls:
            z = rng.standard_normal(d)
            normals.append(z)
            # the computed norm is at least |z_0|, so the norm itself is
            # needed only in the rare case |z_0| < 1e-12
            if abs(z[0]) >= 1e-12 or np.linalg.norm(z) >= 1e-12:
                roots.append(rng.random() ** inv)
            else:
                roots.append(0.0)
    out = []
    for d, _, normals, roots in balls:
        z = np.array(normals).reshape(samples, d)
        # row-wise z.dot(z) through the dot kernel np.linalg.norm uses
        norms = np.sqrt(z[:, None, :] @ z[:, :, None]).reshape(samples, 1)
        unit = np.divide(z, norms, out=np.zeros_like(z), where=norms >= 1e-12)
        out.append((unit, np.array(roots)))
    return out


def check_assumption_open(
    sys: PdeSystem,
    x,
    jet_flat: np.ndarray,
    delta: float,
    eps_ball: float,
    samples: int = 400,
    extra_directions: int = 32,
    r_min: float = 1e-6,
    rng: np.random.Generator | None = None,
    target=None,
) -> AssumptionEvidence:
    """Evidence that F maps B_delta(x) x B_eps(jet) onto a ball around target.

    target defaults to f(x); the refinement scheme probes shifted targets
    f(x) - gamma/(2n). Requires the seed jet to hit the target closely.
    The witnessed ball radius (minimal directional margin) is what the
    scheme uses as a cell openness radius.
    """
    rng = rng or np.random.default_rng(0)
    x = np.asarray(x, dtype=float)
    jet_flat = np.asarray(jet_flat, dtype=float)
    fv = sys.flat_vars()
    if jet_flat.size != len(fv):
        raise ValueError("flat jet length must be K*count")
    target = sys.rhs_at(x) if target is None else np.asarray(target, dtype=float)
    if target.shape != (sys.K,):
        raise ValueError("target must hold one value per component")
    seed_jets = {v: jet_flat[k] for k, v in enumerate(fv)}
    seed_image = np.array([ex.eval_point(Fj, x, seed_jets) for Fj in sys.F])
    if float(np.max(np.abs(seed_image - target))) > 1e-6:
        raise ValueError("seed jet does not hit the probe target F(x, jet) = t")
    (x_unit, x_root), (j_unit, j_root) = _unit_ball_draws(
        rng, (x.size, jet_flat.size), samples
    )
    xp = np.clip(x + (delta * x_root)[:, None] * x_unit, sys.box_lo, sys.box_hi)
    vecs = jet_flat + (eps_ball * j_root)[:, None] * j_unit
    images = _sample_images(sys, xp.T, vecs)
    return _evidence("openness", images, target, extra_directions, r_min, rng)
