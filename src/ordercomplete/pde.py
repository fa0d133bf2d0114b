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
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .grids import GridDomain, GridFunction, complete
from .jets import MultiIndexSet


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
        if self.K < 1:
            raise ValueError(f"need at least one component, got K = {self.K}")
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


def apply_operator(sys: PdeSystem, jets: list[GridFunction]) -> list[GridFunction]:
    """T_j on a candidate's sampled jets, one GridFunction per component.

    jets holds one GridFunction per flat jet variable, in flat order and on
    one domain (see jets.sample_jets). Each F_j is one array evaluation
    over the off-skeleton points; skeleton points are completed by the
    normalize rule, all components at once. Outputs are normalized.
    """
    if len(jets) != sys.unknown_count:
        raise ValueError("candidate signature does not match the system")
    domain = jets[0].domain
    off = ~domain.skeleton
    coords = [m[off] for m in domain.meshes()]
    values = {var: g.values[off] for var, g in zip(sys.flat_vars(), jets)}
    return complete(domain, off, [ex.eval_on_arrays(Fj, coords, values) for Fj in sys.F])


# ---------------------------------------------------------------------------
# assumption evidence


@dataclass(frozen=True)
class AssumptionEvidence:
    """Sampling-based verdict of an assumption probe; not a proof."""

    supported: bool
    witnessed_radius: float
    margin_min: float
    directions: int
    samples_used: int
    r_min: float
    note: str = "sampling evidence; not a proof"


def eval_rows(sys: PdeSystem, exprs: Sequence[ex.Expr], x: Sequence,
              vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expressions of the space and jet variables on rows, one array
    evaluation per expression.

    x holds the space coordinates, one entry per axis (a scalar or one
    value per row); vecs holds one flat jet per row, handed on as one
    contiguous column per jet variable. Returns the values (rows,
    len(exprs)) and the rows on which some expression faults, where the
    values mean nothing. These are the rows on which eval_point raises, by
    construction: it runs this same array evaluation on one row.
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


# probe draws, random directions beside the axes, and the margin support must exceed
_SAMPLES = 400
_EXTRA_DIRECTIONS = 32
_R_MIN = 1e-6
# openness-probe rows whose ball samples are drawn, evaluated and reduced
# together: bounds the probe's temporaries to about a megabyte whatever
# the number of rows
_BLOCK_ROWS = 8


def _unbounded(centered: np.ndarray) -> np.ndarray:
    """Which probes' centred images (A, S, K) are not all finite: such an
    image supports nothing."""
    return ~np.isfinite(centered).all(axis=(1, 2))


def _principal_directions(images: np.ndarray) -> np.ndarray:
    """Principal axes of each probe's sampled image (A, S, K), both signs:
    (A, 2K, K).

    A degenerate image (curve or point in R^K) is flat along its smallest
    principal axis, so probing it yields a near-zero margin; random
    directions alone can miss that when the flat axis is oblique. The
    reduced SVD gives the same axes without the (S, S) left factor; with
    fewer samples than components the full one keeps all K axes. An image
    whose centering overflows gets NaN axes, so it supports nothing.
    """
    centered = images - images.mean(axis=1, keepdims=True)
    full = centered.shape[1] < centered.shape[2]
    bad = _unbounded(centered)
    _, _, vt = np.linalg.svd(np.where(bad[:, None, None], 0.0, centered), full_matrices=full)
    vt[bad] = np.nan
    return np.concatenate([vt, -vt], axis=1)


def _projected_reach(images: np.ndarray, targets: np.ndarray, raw: np.ndarray,
                     norms: np.ndarray) -> np.ndarray:
    """Least reach of A probes' images (A, S, K) past targets (A, K) over
    their directions: the 2K axes, the random draws raw (A *
    _EXTRA_DIRECTIONS, K) whose norms are above 1e-12, and the principal
    axes, both signs; NaN for an image whose centring is not finite."""
    count, _, K = images.shape
    axes = np.concatenate([np.eye(K), -np.eye(K)])
    # a dropped draw stands in as the first axis, which leaves the minimum alone
    unit = np.divide(raw, norms, out=np.tile(axes[0], (raw.shape[0], 1)), where=norms > 1e-12)
    dirs = np.concatenate([np.broadcast_to(axes, (count, 2 * K, K)),
                           unit.reshape(count, _EXTRA_DIRECTIONS, K),
                           _principal_directions(images)], axis=1)
    # the (S, D) projection of one probe at a time: a block's (A, S, D) one
    # would be the probe's one large temporary, and above malloc's mmap
    # threshold it raised peak RSS by 1.7 MB on ode1d_batch's 1D problems
    reach = np.stack([(rel @ d.T).max(axis=0)
                      for rel, d in zip(images - targets[:, None, :], dirs)])
    return reach.min(axis=1)


def _line_reach(images: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """_projected_reach for K = 1, bit for bit, in two reductions: every
    direction is +1 or -1 exactly, or NaN where the image's centring is not
    finite, so the least reach is that of the farthest reaches up and down.
    A projection sums from +0.0, so its zero is +0.0; adding 0.0 gives
    the branch's zeros that sign."""
    rel = images[:, :, 0] - targets
    reach = np.minimum(rel.max(axis=1), -rel.min(axis=1)) + 0.0
    reach[_unbounded(images - images.mean(axis=1, keepdims=True))] = np.nan
    return reach


@np.errstate(over="ignore", invalid="ignore")
def _margins(images: np.ndarray, targets: np.ndarray,
             rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Minimal directional margins of A probes and their direction counts.

    Probe a's directions are the 2K axes, _EXTRA_DIRECTIONS random ones
    drawn from rngs[a] (a draw of norm at most 1e-12 is dropped) and the
    principal axes of its images[a] (S, K), both signs; its margin is the
    minimum over them of the farthest reach of its images past targets[a].
    For K = 1 the random directions add no reach, but they are drawn and
    counted all the same, so each stream and direction count is that of
    the general projection.
    """
    count, _, K = images.shape
    raw = np.concatenate([rng.normal(size=(_EXTRA_DIRECTIONS, K)) for rng in rngs])
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    reach = (_line_reach(images, targets) if K == 1
             else _projected_reach(images, targets, raw, norms))
    directions = 4 * K + (norms > 1e-12).reshape(count, _EXTRA_DIRECTIONS).sum(axis=1)
    return np.fmax(reach, -np.inf), directions  # NaN: an overflowed image


def _evidence(images: np.ndarray, kept: np.ndarray, targets: np.ndarray,
              rngs: Sequence[np.random.Generator]) -> list[AssumptionEvidence]:
    """Directional ball-containment verdicts of A probes: targets (A, K) in
    the sampled images (A, S, K), of which probe a keeps the samples
    kept[a] (those on which no F_j faults).

    The probes that keep every sample are reduced together. One that drops
    some is reduced alone on the samples it keeps, so its image's mean and
    principal axes are those of its kept samples. One that keeps none is
    unsupported and draws no directions.
    """
    used = kept.sum(axis=1)
    groups = [np.flatnonzero(used == images.shape[1])]
    groups += [[a] for a in np.flatnonzero((used > 0) & (used < images.shape[1]))]
    margins = np.full(len(rngs), -np.inf)
    directions = np.zeros(len(rngs), dtype=int)
    for group in groups:
        if len(group):  # the probes of a group keep the same samples
            margins[group], directions[group] = _margins(
                images[group][:, kept[group[0]]], targets[group], [rngs[a] for a in group])
    return [
        AssumptionEvidence(
            supported=bool(m > _R_MIN), witnessed_radius=max(float(m), 0.0),
            margin_min=float(m), directions=int(d), samples_used=int(u), r_min=_R_MIN,
        )
        for m, d, u in zip(margins, directions, used)
    ]


def check_assumption_interior(
    sys: PdeSystem,
    x,
    trial_box: np.ndarray,
    rng: np.random.Generator,
) -> AssumptionEvidence:
    """Evidence that f(x) lies in the interior of {F(x, xi) : xi in trial_box}.

    Ball containment is probed along the 2K axis directions plus random
    ones; support requires every directional margin to exceed _R_MIN.
    """
    box = np.asarray(trial_box, dtype=float)
    if box.shape != (sys.unknown_count, 2):
        raise ValueError("trial box must have shape (M, 2)")
    x = np.asarray(x, dtype=float)
    target = sys.rhs_at(x)
    vecs = rng.uniform(box[:, 0], box[:, 1], size=(_SAMPLES, box.shape[0]))
    images, faulted = eval_rows(sys, sys.F, x, vecs)
    return _evidence(images[None], ~faulted[None], target[None], [rng])[0]


def _in_balls(centers: np.ndarray, radii, normals: np.ndarray,
              uniforms: np.ndarray) -> np.ndarray:
    """Uniform points of A balls in R^d, S per ball, as coordinate columns
    (d, A, S). Ball a has center centers[a] (d,) and radius radii[a] (or
    radii for all); its s-th point takes the direction of normals[a, s]
    (d,), a standard normal draw, and the radius fraction
    uniforms[a, s]^(1/d), u uniform. A point whose normal draw has norm
    below 1e-12 is its ball's center.

    Every point is center + (radius * u^(1/d)) * (normal / norm) in IEEE
    arithmetic, the norm that of np.linalg.norm along the last axis.
    """
    d = normals.shape[-1]
    norms = np.linalg.norm(normals, axis=-1)
    short = norms < 1e-12
    if short.any():  # divided by 1, then zeroed
        norms[short] = 1.0
    points = np.empty((d, *norms.shape))
    for j in range(d):
        np.divide(normals[..., j], norms, out=points[j])
    if short.any():
        points[:, short] = 0.0
    points *= np.reshape(radii, (-1, 1)) * uniforms ** (1.0 / d)
    points += centers.T[:, :, None]
    return points


def _ball_images(sys: PdeSystem, x: np.ndarray, jets: np.ndarray, delta: np.ndarray,
                 eps_ball: float, rngs: Sequence[np.random.Generator]):
    """F on the ball samples of the probe rows x (A, n), jets (A, M) and
    delta (A,), row a drawing from rngs[a]: the point ball's samples (a
    (S, n) standard normal block, then S uniforms), then the jet ball's
    alike, each drawn into its place in the block's arrays. Returns the
    images (A, S, K) and which samples fault (A, S)."""
    count, n, M = len(rngs), sys.n, sys.unknown_count
    x_normals, j_normals = np.empty((count, _SAMPLES, n)), np.empty((count, _SAMPLES, M))
    x_uniforms, j_uniforms = np.empty((2, count, _SAMPLES))
    for a, rng in enumerate(rngs):
        rng.standard_normal(out=x_normals[a])
        rng.random(out=x_uniforms[a])
        rng.standard_normal(out=j_normals[a])
        rng.random(out=j_uniforms[a])
    points = _in_balls(x, delta, x_normals, x_uniforms)
    np.clip(points, np.reshape(sys.box_lo, (-1, 1, 1)), np.reshape(sys.box_hi, (-1, 1, 1)),
            out=points)
    vecs = _in_balls(jets, eps_ball, j_normals, j_uniforms).reshape(M, -1)
    images, faulted = eval_rows(sys, sys.F, points.reshape(n, -1), vecs.T)
    return images.reshape(count, _SAMPLES, sys.K), faulted.reshape(count, _SAMPLES)


def check_assumption_open(
    sys: PdeSystem,
    x,
    jets,
    delta,
    eps_ball: float,
    stream: Callable[[int], np.random.Generator],
    target,
) -> list[AssumptionEvidence]:
    """Evidence, row by row, that F maps B_delta(x) x B_eps(jet) onto a
    ball around the target; one verdict per row.

    x holds the anchors (rows, n), jets their flat jets (rows, M), delta
    the point-ball radii (rows,) and target the targets (rows, K); the
    refinement scheme probes shifted targets f(x) - gamma/(2n). Every seed
    jet must hit its target closely, |F(x, jet) - t| <= 1e-6, under the
    array evaluator, the one jet_solve converges under. A verdict's
    witnessed ball radius (its minimal directional margin) is what the
    scheme uses as a cell openness radius.

    Row r draws from stream(r), in this order: the point ball's samples
    (a (S, n) standard normal block, then S uniforms), the jet ball's
    alike, and then, if some of its samples do not fault, its random
    directions. So a row's verdict depends on its own inputs and stream
    alone, and is the same in any batch, alone included. The rows' draws
    are made one row after another; their samples are evaluated, and their
    margins reduced, _BLOCK_ROWS rows at a time.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != sys.n:
        raise ValueError(f"anchors must have shape (rows, {sys.n})")
    rows = x.shape[0]
    jets = np.asarray(jets, dtype=float)
    if jets.shape != (rows, sys.unknown_count):
        raise ValueError("flat jets must have shape (rows, K*count)")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (rows,):
        raise ValueError("one point-ball radius per row required")
    coords = list(x.T)
    target = np.asarray(target, dtype=float)
    if target.shape != (rows, sys.K):
        raise ValueError("target must hold one value per component and row")
    seed_images, faulted = eval_rows(sys, sys.F, coords, jets)
    missed = faulted | (np.max(np.abs(seed_images - target), axis=1) > 1e-6)
    if missed.any():
        raise ValueError("seed jet does not hit the probe target F(x, jet) = t "
                         f"(row {int(np.argmax(missed))})")
    evidence = []
    for lo in range(0, rows, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rngs = [stream(r) for r in range(rows)[block]]
        images, faulted = _ball_images(sys, x[block], jets[block], delta[block],
                                       eps_ball, rngs)
        evidence += _evidence(images, ~faulted, target[block], rngs)
    return evidence
