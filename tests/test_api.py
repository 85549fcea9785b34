"""The public API: the names ``locc_ladder`` exports.

A name added to or removed from ``__all__`` has to be added to or removed
from this list as well, so that the change is a reviewed edit.  The same
holds for the fields of ``IntermediateChain``, which the transcript's
closed ``chain`` section and the benchmark read.
"""

from dataclasses import fields

import locc_ladder
from locc_ladder import IntermediateChain

PUBLIC_NAMES = [
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


def test_all_is_the_pinned_list():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert locc_ladder.__all__ == PUBLIC_NAMES


def test_every_name_resolves():
    missing = [name for name in locc_ladder.__all__ if not hasattr(locc_ladder, name)]
    assert missing == []


def test_intermediate_chain_fields_are_pinned():
    # states is derived from layouts, not stored beside them.
    assert [f.name for f in fields(IntermediateChain)] == ["layouts", "m", "tilde_values", "windows"]
