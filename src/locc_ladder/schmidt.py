"""Schmidt-form state vectors and the majorization feasibility test.

A bipartite pure state in Schmidt form is described entirely by its ordered
amplitude vector.  All comparison arithmetic runs on squared values; the
amplitudes are the canonical stored representation.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import accumulate, compress, count, repeat
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
# Largest dimension the full-matrix oracle takes (oracle.py).  Kept here,
# with no numpy, so that the CLI refuses a larger pair before it plans one.
MAX_ORACLE_DIM = 64

# Renormalization is skipped below this drift so that serialization
# round-trips reproduce amplitudes bitwise.
_EPS_EXACT = 1e-13


def _is_real_kind(kind: type) -> bool:
    """The entry rule's type half: a real-number type (numbers.Real, as numpy's
    scalars and Fraction are), not bool.  float and int first: an ABC lookup is slow."""
    return issubclass(kind, (float, int, numbers.Real)) and kind is not bool


def _is_integer_kind(kind: type) -> bool:
    """The index rule: an integer type (numbers.Integral, as numpy's integer
    scalars are), not bool; int first, as in _is_real_kind."""
    return issubclass(kind, (int, numbers.Integral)) and kind is not bool


def _finite_nonnegative(values: Sequence[float]) -> bool:
    """The entry rule: whether every entry is a real number (_is_real_kind,
    asked once per distinct type) that a float holds, finite and >= 0 (-0.0
    included).  False, not an error, for an entry this cannot judge."""
    try:
        kinds_ok = all(map(_is_real_kind, set(map(type, values))))
        return kinds_ok and all(map(math.isfinite, values)) and min(values, default=0.0) >= 0.0
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class SchmidtVector:
    """Ordered non-negative amplitudes of a Schmidt-form bipartite state.

    Invariants: entries non-increasing, squares summing to one.  A
    "source-grade" vector additionally has strictly positive entries;
    targets and intermediate states may carry zeros.  SchmidtVector(amps)
    checks n >= 2, each entry by the entry rule, and order, then holds the
    amplitudes as floats and checks their norm; _trusted(amps) checks
    nothing, for floats whose checks the caller has just made ("# checked:"
    names them).
    """

    amps: tuple[float, ...]

    def __post_init__(self):
        amps = self.amps
        if len(amps) < 2:
            raise DimensionTooSmall(f"need dimension >= 2, got {len(amps)}")
        # The whole-tuple test passes exactly when the loop raises nothing;
        # the loop runs only to name the first bad entry.
        floors = map(operator.sub, amps[1:], repeat(EPS_CMP))
        if not (_finite_nonnegative(amps) and all(map(operator.ge, amps, floors))):
            for j, a in enumerate(amps):
                if not _finite_nonnegative((a,)):
                    raise NegativeEntry(f"amplitude {a!r} at index {j}")
                if j and amps[j - 1] < a - EPS_CMP:
                    raise NotSorted(f"amplitudes increase at index {j}")
        amps = tuple(map(float, amps))
        squares = tuple(map(operator.mul, amps, amps))
        drift = abs(sum(squares) - 1.0)
        if drift > EPS_NORM:
            raise NotNormalized(f"squared amplitudes sum off by {drift:.3e}")
        object.__setattr__(self, "amps", amps)
        # Outside the fields, so eq, repr and hash see amps alone.
        object.__setattr__(self, "_squares", squares)

    @classmethod
    def _trusted(cls, amps: tuple[float, ...]) -> SchmidtVector:
        state = object.__new__(cls)
        vars(state).update(amps=amps, _squares=tuple(map(operator.mul, amps, amps)))
        return state

    @property
    def n(self) -> int:
        return len(self.amps)

    @property
    def squares(self) -> tuple[float, ...]:
        """The squared coefficients, a * a for each amplitude a.  Computed
        once, at construction, and the same tuple on every read."""
        return self._squares

    def is_source_grade(self) -> bool:
        return all(map(operator.gt, self.amps, repeat(EPS_ZERO)))


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
    drift raises NotNormalized.  An entry that is not a real number (a str
    or a bool, say) or that a float cannot hold raises NegativeEntry.
    """
    items = list(raw)
    if len(items) < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {len(items)}")
    # As in SchmidtVector: the loop runs only to name the first bad entry.
    if not _finite_nonnegative(items):
        j, x = next((j, x) for j, x in enumerate(items) if not _finite_nonnegative((x,)))
        if not _is_real_kind(type(x)):
            raise NegativeEntry(f"entry {x!r} at index {j} is not a real number")
        try:
            x = float(x)
        except OverflowError:
            raise NegativeEntry("an entry is too large for a float") from None
        fault = "negative" if math.isfinite(x) else "non-finite"
        raise NegativeEntry(f"{fault} entry {x!r} at index {j}")
    vals = list(map(float, items))
    if any(map(operator.lt, vals, vals[1:])):
        if not autosort:
            raise NotSorted("entries are not non-increasing (pass autosort to sort)")
        vals.sort(reverse=True)
    amps = [x**0.5 for x in vals] if squared else vals  # not math.sqrt: last bits differ for some x
    total = sum(map(operator.mul, amps, amps))
    drift = abs(total - 1.0)
    if drift > EPS_NORM:
        raise NotNormalized(f"squared amplitudes sum to {total!r}")
    if drift > _EPS_EXACT:
        scale = total**0.5
        amps = [a / scale for a in amps]
    # checked: n >= 2, finite, >= 0, order and drift above; sqrt and rescale keep them.
    return SchmidtVector._trusted(tuple(amps))


def majorizes(source: SchmidtVector, target: SchmidtVector) -> MajorizationReport:
    """Test whether source can be deterministically transformed into target.

    Feasible iff every target tail sum of squared coefficients is bounded by
    the source's, with equality for the full sum.
    """
    if source.n != target.n:
        raise DimensionMismatch(f"dimensions differ: {source.n} vs {target.n}")
    s2, t2 = source.squares, target.squares
    # Sums from the last index on an accumulator that starts at 0.0.
    diffs = map(operator.sub, reversed(s2), reversed(t2))
    margins = list(accumulate(diffs, initial=0.0))[:0:-1]
    short = map(operator.lt, margins[1:], repeat(-EPS_CMP))
    failing_k = 1 if abs(margins[0]) > EPS_CMP else next(compress(count(2), short), None)
    return MajorizationReport(
        holds=failing_k is None,
        failing_k=failing_k,
        tail_margins=tuple(margins),
    )


def states_equal(a: SchmidtVector, b: SchmidtVector) -> bool:
    """Whether two states agree in every squared coefficient within EPS_CMP."""
    return amps_agree(a.squares, b.squares)


def amps_agree(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether a and b agree within EPS_CMP entry by entry, to the shorter
    length; a NaN on either side disagrees."""
    diffs = map(abs, map(operator.sub, a, b))
    return all(map(operator.le, diffs, repeat(EPS_CMP)))


def effective_rank(v: SchmidtVector) -> int:
    """Number of strictly positive Schmidt coefficients (LOCC-monotone)."""
    return sum(1 for a in v.amps if a > EPS_ZERO)
