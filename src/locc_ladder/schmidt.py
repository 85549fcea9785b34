"""Schmidt-form state vectors and the majorization feasibility test.

A bipartite pure state in Schmidt form is described entirely by its ordered
amplitude vector.  All comparison arithmetic runs on squared values; the
amplitudes are the canonical stored representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NegativeEntry,
    NotNormalized,
    NotSorted,
)

# Input normalization drift tolerated (and silently repaired) by validate().
EPS_NORM = 1e-9
# Tolerance for majorization tail comparisons and general coefficient ties.
EPS_CMP = 1e-12
# Threshold below which an amplitude counts as zero (rank counting, pruning).
EPS_ZERO = 1e-12
# Completeness / probability-sum tolerance for measurement steps.
EPS_COMPLETE = 1e-12

# Renormalization is skipped below this drift so that serialization
# round-trips reproduce amplitudes bitwise.
_EPS_EXACT = 1e-13


@dataclass(frozen=True)
class SchmidtVector:
    """Ordered non-negative amplitudes of a Schmidt-form bipartite state.

    Invariants: entries non-increasing, squares summing to one.  A
    "source-grade" vector additionally has strictly positive entries;
    targets and intermediate states may carry zeros.
    """

    amps: tuple[float, ...]

    def __post_init__(self):
        if len(self.amps) < 2:
            raise DimensionTooSmall(f"need dimension >= 2, got {len(self.amps)}")
        for j, a in enumerate(self.amps):
            if not (a >= 0.0) or a != a or a == float("inf"):
                raise NegativeEntry(f"amplitude {a!r} at index {j}")
            if j and self.amps[j - 1] < a - EPS_CMP:
                raise NotSorted(f"amplitudes increase at index {j}")
        drift = abs(sum(a * a for a in self.amps) - 1.0)
        if drift > EPS_NORM:
            raise NotNormalized(f"squared amplitudes sum off by {drift:.3e}")

    @property
    def n(self) -> int:
        return len(self.amps)

    @property
    def squares(self) -> tuple[float, ...]:
        return tuple(a * a for a in self.amps)

    def is_source_grade(self) -> bool:
        return all(a > EPS_ZERO for a in self.amps)


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of the tail-sum feasibility test.

    tail_margins[k-1] is sum_{j>=k} source_j^2 - sum_{j>=k} target_j^2 for
    k = 1..n; the transformation is feasible iff every margin is >= -EPS_CMP
    and the k=1 margin vanishes.  failing_k is the smallest violating k.
    """

    holds: bool
    failing_k: Optional[int]
    tail_margins: tuple[float, ...]


def validate(
    raw: Sequence[float] | Iterable[float],
    *,
    squared: bool = False,
    autosort: bool = False,
) -> SchmidtVector:
    """Build a SchmidtVector from raw numbers.

    With squared=True the entries are read as squared coefficients and
    square-rooted.  Unsorted input is an error unless autosort is set.
    Normalization drift up to EPS_NORM is silently renormalized; larger
    drift raises NotNormalized.
    """
    vals = [float(x) for x in raw]
    if len(vals) < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {len(vals)}")
    for j, x in enumerate(vals):
        if x != x or x in (float("inf"), float("-inf")):
            raise NegativeEntry(f"non-finite entry {x!r} at index {j}")
        if x < 0.0:
            raise NegativeEntry(f"negative entry {x!r} at index {j}")
    if any(vals[j] < vals[j + 1] for j in range(len(vals) - 1)):
        if not autosort:
            raise NotSorted("entries are not non-increasing (pass autosort to sort)")
        vals.sort(reverse=True)
    amps = [x**0.5 for x in vals] if squared else vals
    total = sum(a * a for a in amps)
    drift = abs(total - 1.0)
    if drift > EPS_NORM:
        raise NotNormalized(f"squared amplitudes sum to {total!r}")
    if drift > _EPS_EXACT:
        scale = total**0.5
        amps = [a / scale for a in amps]
    return SchmidtVector(tuple(amps))


def majorizes(source: SchmidtVector, target: SchmidtVector) -> MajorizationReport:
    """Test whether source can be deterministically transformed into target.

    Feasible iff every target tail sum of squared coefficients is bounded by
    the source's, with equality for the full sum.
    """
    if source.n != target.n:
        raise DimensionMismatch(f"dimensions differ: {source.n} vs {target.n}")
    n = source.n
    s2, t2 = source.squares, target.squares
    margins = [0.0] * n
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc += s2[k] - t2[k]
        margins[k] = acc
    failing_k = None
    for k in range(n):
        bad = margins[k] < -EPS_CMP if k else abs(margins[k]) > EPS_CMP
        if bad:
            failing_k = k + 1
            break
    return MajorizationReport(
        holds=failing_k is None,
        failing_k=failing_k,
        tail_margins=tuple(margins),
    )


def states_equal(a: SchmidtVector, b: SchmidtVector) -> bool:
    """Whether two states agree in every squared coefficient within EPS_CMP."""
    return all(abs(s - t) <= EPS_CMP for s, t in zip(a.squares, b.squares))


def effective_rank(v: SchmidtVector) -> int:
    """Number of strictly positive Schmidt coefficients (LOCC-monotone)."""
    return sum(1 for a in v.amps if a > EPS_ZERO)
