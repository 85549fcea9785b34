"""Deterministic LOCC transformations of bipartite pure states.

Feasibility checking (majorization), closed-form 2- and 3-dimensional
measurement solvers, multi-step ladder planning, and an independent
full-matrix oracle with seeded Monte Carlo trajectory sampling.

Every public name is listed once, in ``__all__``.  The nine not imported
here are the oracle's, the one numpy module: they load on first access
(``__getattr__``, PEP 562), and the planner is scalar arithmetic, so a
process that never verifies or samples a plan imports neither.
"""

__version__ = "0.1.0"

from .errors import (
    BlockTooLarge,
    ChainInvariantViolated,
    DimensionMismatch,
    DimensionTooSmall,
    IndexRangeInvalid,
    LadderInfeasible,
    LoccLadderError,
    NegativeEntry,
    NormalizationUnderflow,
    NotMajorized,
    NotNormalized,
    NotSorted,
    OmegaNotMajorizing,
    OmegaNotSorted,
    SolverInvariantViolated,
    SourceHasZero,
    ZeroBlockNorm,
)
from .ladder import (
    InfeasibilityCertificate,
    IntermediateChain,
    LadderPlan,
    choose_omega,
    embed_step,
    greatest_first_chain,
    intermediate_chain,
    plan_full,
)
from .schmidt import (
    EPS_CMP,
    EPS_COMPLETE,
    EPS_NORM,
    EPS_ZERO,
    MajorizationReport,
    SchmidtVector,
    effective_rank,
    majorizes,
    validate,
)
from .solvers import (
    CASE_I,
    CASE_II,
    TRIVIAL,
    TWO_OUTCOME,
    DiagonalKraus,
    MeasurementStep,
    OutcomeBranch,
    solve2,
    solve3,
)
from .transcript import ProblemSpec, Transcript, load_schema

__all__ = [
    "BlockTooLarge",
    "CASE_I",
    "CASE_II",
    "ChainInvariantViolated",
    "DiagonalKraus",
    "DimensionMismatch",
    "DimensionTooSmall",
    "EPS_CMP",
    "EPS_COMPLETE",
    "EPS_NORM",
    "EPS_ZERO",
    "FrequencyReport",
    "FullState",
    "IndexRangeInvalid",
    "InfeasibilityCertificate",
    "IntermediateChain",
    "LadderInfeasible",
    "LadderPlan",
    "LoccLadderError",
    "MajorizationReport",
    "MeasurementStep",
    "NegativeEntry",
    "NormalizationUnderflow",
    "NotMajorized",
    "NotNormalized",
    "NotSorted",
    "OmegaNotMajorizing",
    "OmegaNotSorted",
    "OutcomeBranch",
    "ProblemSpec",
    "SchmidtVector",
    "SolverInvariantViolated",
    "SourceHasZero",
    "TRIVIAL",
    "TWO_OUTCOME",
    "TrajectoryRecord",
    "Transcript",
    "VerificationReport",
    "ZeroBlockNorm",
    "apply_correction",
    "apply_kraus",
    "choose_omega",
    "effective_rank",
    "embed_step",
    "greatest_first_chain",
    "intermediate_chain",
    "load_schema",
    "majorizes",
    "plan_full",
    "run_trajectory",
    "sample_trajectories",
    "solve2",
    "solve3",
    "validate",
    "verify_plan",
]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
