"""Constructive order-completion machinery for nonlinear PDE systems.

Lattice surrogates for semi-continuous envelopes, multi-index jets and
piecewise Taylor candidates, pointwise jet solving, global approximate
lower/upper pairs, a staged refinement scheme with per-stage certificates,
and interval/convergence analysis, plus a batch CLI.
"""

from .expr import (
    EvalDomainError,
    Expr,
    ParseError,
    SignatureError,
    diff_jet,
    eval_interval,
    eval_on_arrays,
    eval_point,
    has_jet_vars,
    jet_vars,
    parse,
    render,
)
from .intervals import Interval, IntervalDomainError
from .grids import (
    GridDomain,
    GridFunction,
    OrderConvergenceCertificate,
    OrderInterval,
    QuasiUniformResult,
    baire_lower,
    baire_upper,
    complete,
    is_nowhere_dense,
    lattice_inf,
    lattice_sup,
    leq_dense,
    normalize,
    order_convergence_check,
    quasi_uniform_check,
    read_csv,
    skeleton_fill,
    write_csv,
)
from .jets import (
    Cell,
    MultiIndexSet,
    PiecewisePoly,
    TaylorPoly,
    TilingError,
    assemble,
    deriv_eval,
    poly_from_dict,
    poly_to_dict,
    read_poly_json,
    sample_jets,
    write_poly_json,
)
from .pde import (
    AssumptionEvidence,
    PdeSystem,
    apply_operator,
    check_assumption_interior,
    check_assumption_open,
)
from .checker import (
    ApEqCertificate,
    ConstructionError,
    Eq1Certificate,
    Eq2Certificate,
    Eq3Certificate,
    RefinementStage,
    Tiling,
    scheme_verdict,
    tile_domain,
)
from .solver import (
    GlobalPairResult,
    NoSolutionError,
    SchemeResult,
    global_pair,
    jet_solve,
    refine,
    run_scheme,
)
from .analysis import (
    IntervalSequence,
    NestedLimitReport,
    ReferenceReport,
    compare_reference,
    dilation_envelopes,
    envelope_sequence,
    interval_pushforward,
    nested_limit_check,
)

# The batch front end loads on first use (PEP 562): importing it here would
# put `ordercomplete.cli` in sys.modules before `python -m ordercomplete.cli`
# runs it, and runpy warns about that.
_CLI_NAMES = ("RunConfig", "load_spec", "main", "run_pipeline", "verify")


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_CLI_NAMES])


__all__ = [
    "ApEqCertificate",
    "AssumptionEvidence",
    "Cell",
    "ConstructionError",
    "Eq1Certificate",
    "Eq2Certificate",
    "Eq3Certificate",
    "EvalDomainError",
    "Expr",
    "GlobalPairResult",
    "GridDomain",
    "GridFunction",
    "Interval",
    "IntervalDomainError",
    "IntervalSequence",
    "MultiIndexSet",
    "NestedLimitReport",
    "NoSolutionError",
    "OrderConvergenceCertificate",
    "OrderInterval",
    "ParseError",
    "PdeSystem",
    "PiecewisePoly",
    "QuasiUniformResult",
    "ReferenceReport",
    "RefinementStage",
    "RunConfig",
    "SchemeResult",
    "SignatureError",
    "TaylorPoly",
    "Tiling",
    "TilingError",
    "apply_operator",
    "assemble",
    "baire_lower",
    "baire_upper",
    "check_assumption_interior",
    "check_assumption_open",
    "compare_reference",
    "complete",
    "deriv_eval",
    "diff_jet",
    "dilation_envelopes",
    "envelope_sequence",
    "eval_interval",
    "eval_on_arrays",
    "eval_point",
    "global_pair",
    "has_jet_vars",
    "interval_pushforward",
    "is_nowhere_dense",
    "jet_solve",
    "jet_vars",
    "lattice_inf",
    "lattice_sup",
    "leq_dense",
    "load_spec",
    "main",
    "nested_limit_check",
    "normalize",
    "order_convergence_check",
    "parse",
    "poly_from_dict",
    "poly_to_dict",
    "quasi_uniform_check",
    "read_csv",
    "read_poly_json",
    "refine",
    "render",
    "run_pipeline",
    "run_scheme",
    "scheme_verdict",
    "sample_jets",
    "skeleton_fill",
    "tile_domain",
    "verify",
    "write_csv",
    "write_poly_json",
]
