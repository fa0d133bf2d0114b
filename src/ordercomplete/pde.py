"""PDE systems T_j(x, D)u = F_j(x, u, ..., D^alpha u_i, ...) and their
application to piecewise-polynomial candidates.

The operator acts on jets only; applied to a candidate's sampled jets
(jets.sample_jets), it evaluates F at each off-skeleton point and completes
across the skeleton by the normalize rule, mirroring the envelope-composed
extension of the operator to functions with jumps.

Assumption checks are sampling heuristics. Their verdicts are marked as
evidence and carry witnessed radii; they are never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .grids import GridDomain, GridFunction, skeleton_fill
from .jets import Jet, MultiIndexSet


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
        """d F_j / d xi_v for every operator body and flat jet variable;
        abs contributes its generalized derivative (see expr.diff_jet)."""
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


def apply_operator(sys: PdeSystem, jets: list[GridFunction]) -> list[GridFunction]:
    """T_j on a candidate's sampled jets, one GridFunction per component.

    jets holds one GridFunction per flat jet variable, in flat order and on
    one domain (see jets.sample_jets). Each F_j is one array evaluation
    over the off-skeleton points; skeleton points are completed by the
    normalize rule. Outputs are normalized.
    """
    if len(jets) != sys.unknown_count:
        raise ValueError("candidate signature does not match the system")
    domain = jets[0].domain
    off = ~domain.skeleton
    coords = [m[off] for m in domain.meshes()]
    values = {var: g.values[off] for var, g in zip(sys.flat_vars(), jets)}
    result = []
    for Fj in sys.F:
        vals = np.zeros(domain.shape)
        vals[off] = ex.eval_on_arrays(Fj, coords, values)
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


def eval_rows(sys: PdeSystem, exprs: Sequence[ex.Expr], x: Sequence,
              vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expressions of the space and jet variables on rows, one array
    evaluation per expression.

    x holds the space coordinates, one entry per axis (a scalar or one
    value per row); vecs holds one flat jet per row, handed on as one
    contiguous column per jet variable. Returns the values (rows,
    len(exprs)) and the rows on which some expression faults, where the
    values mean nothing: exactly the rows on which eval_point raises.
    """
    jets = dict(zip(sys.flat_vars(), np.ascontiguousarray(vecs.T)))
    values = np.empty((vecs.shape[0], len(exprs)))
    faulted = np.zeros(vecs.shape[0], dtype=bool)
    for j, e in enumerate(exprs):
        try:
            values[:, j] = ex.eval_on_arrays(e, list(x), jets)
        except ex.EvalDomainError as err:
            if err.faulted is None:
                raise
            values[:, j] = err.values
            faulted |= err.faulted
    return values, faulted


def _sample_images(sys: PdeSystem, x: Sequence, vecs: np.ndarray) -> np.ndarray:
    """F at a batch of samples, one row each (see eval_rows); samples on
    which some F_j faults are dropped."""
    images, faulted = eval_rows(sys, sys.F, x, vecs)
    return images[~faulted]


# probe draws, random directions beside the axes, and the margin support must exceed
_SAMPLES = 400
_EXTRA_DIRECTIONS = 32
_R_MIN = 1e-6


def _evidence(kind: str, images: np.ndarray, target: np.ndarray,
              rng: np.random.Generator) -> AssumptionEvidence:
    """Directional ball-containment verdict of target in the sampled image."""
    if images.shape[0] == 0:
        return AssumptionEvidence(
            kind=kind, supported=False, witnessed_radius=0.0,
            margin_min=float("-inf"), directions=0, samples_used=0, r_min=_R_MIN,
        )
    dirs = _directions(images.shape[1], _EXTRA_DIRECTIONS, rng)
    dirs = np.concatenate([dirs, _principal_directions(images)], axis=0)
    margin = _image_margins(images, target, dirs)
    return AssumptionEvidence(
        kind=kind,
        supported=margin > _R_MIN,
        witnessed_radius=max(margin, 0.0),
        margin_min=margin,
        directions=dirs.shape[0],
        samples_used=images.shape[0],
        r_min=_R_MIN,
    )


def check_assumption_interior(
    sys: PdeSystem,
    x,
    trial_box: np.ndarray,
    rng: np.random.Generator | None = None,
) -> AssumptionEvidence:
    """Evidence that f(x) lies in the interior of {F(x, xi) : xi in trial_box}.

    Ball containment is probed along the 2K axis directions plus random
    ones; support requires every directional margin to exceed _R_MIN.
    """
    rng = rng or np.random.default_rng(0)
    box = np.asarray(trial_box, dtype=float)
    if box.shape != (sys.unknown_count, 2):
        raise ValueError("trial box must have shape (M, 2)")
    x = np.asarray(x, dtype=float)
    target = sys.rhs_at(x)
    vecs = rng.uniform(box[:, 0], box[:, 1], size=(_SAMPLES, box.shape[0]))
    images = _sample_images(sys, x, vecs)
    return _evidence("interior", images, target, rng)


def _unit_ball_draws(
    rng: np.random.Generator, dims: Sequence[int], samples: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Uniform draws from unit balls of the given dimensions.

    Ball by ball, draws a (samples, d) block of standard normal directions
    and then samples uniform radii u. Returns per ball the unit directions
    (S, d) and the radial factors u^(1/d) (S,); both are 0 on a row whose
    direction has norm below 1e-12, so that point is the center.
    """
    out = []
    for d in dims:
        z = rng.standard_normal((samples, d))
        u = rng.random(samples)
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        kept = norms >= 1e-12
        unit = np.divide(z, norms, out=np.zeros_like(z), where=kept)
        out.append((unit, np.where(kept[:, 0], u ** (1.0 / d), 0.0)))
    return out


def check_assumption_open(
    sys: PdeSystem,
    x,
    jet_flat: np.ndarray,
    delta: float,
    eps_ball: float,
    rng: np.random.Generator | None = None,
    target=None,
) -> AssumptionEvidence:
    """Evidence that F maps B_delta(x) x B_eps(jet) onto a ball around target.

    target defaults to f(x); the refinement scheme probes shifted targets
    f(x) - gamma/(2n). Requires the seed jet to hit the target closely under
    the array evaluator, the one jet_solve converges under.
    The witnessed ball radius (minimal directional margin) is what the
    scheme uses as a cell openness radius. rng gives the point ball's
    samples, then the jet ball's (see _unit_ball_draws), then the random
    directions; the scheme hands each anchor its own stream.
    """
    rng = rng or np.random.default_rng(0)
    x = np.asarray(x, dtype=float)
    jet_flat = np.asarray(jet_flat, dtype=float)
    if jet_flat.size != sys.unknown_count:
        raise ValueError("flat jet length must be K*count")
    target = sys.rhs_at(x) if target is None else np.asarray(target, dtype=float)
    if target.shape != (sys.K,):
        raise ValueError("target must hold one value per component")
    seed_image = _sample_images(sys, x, jet_flat.reshape(1, -1))
    if seed_image.shape[0] == 0 or float(np.max(np.abs(seed_image - target))) > 1e-6:
        raise ValueError("seed jet does not hit the probe target F(x, jet) = t")
    (x_unit, x_root), (j_unit, j_root) = _unit_ball_draws(
        rng, (x.size, jet_flat.size), _SAMPLES
    )
    xp = np.clip(x + (delta * x_root)[:, None] * x_unit, sys.box_lo, sys.box_hi)
    vecs = jet_flat + (eps_ball * j_root)[:, None] * j_unit
    images = _sample_images(sys, xp.T, vecs)
    return _evidence("openness", images, target, rng)
