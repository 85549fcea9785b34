"""Closed-form single-measurement solvers for 2- and 3-dimensional blocks.

Each solver returns a complete generalized measurement: diagonal operators,
outcome probabilities and the permutation relabelings that map every outcome
back to the target, so the transformation succeeds with unit probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .errors import (
    DimensionMismatch,
    NegativeEntry,
    NotMajorized,
    SolverInvariantViolated,
    SourceHasZero,
)
from .schmidt import EPS_CMP, EPS_COMPLETE, EPS_ZERO, SchmidtVector, majorizes
from .schmidt import _finite_nonnegative, states_equal

CASE_I = "CASE_I"
CASE_II = "CASE_II"
TWO_OUTCOME = "TWO_OUTCOME"
TRIVIAL = "TRIVIAL"


@dataclass(frozen=True)
class DiagonalKraus:
    """A measurement operator diagonal in the Schmidt basis.  DiagonalKraus(diag)
    checks every entry by the entry rule (a real number, not a bool, finite and
    >= 0) and raises NegativeEntry; _trusted(diag) checks nothing,
    for entries the caller has just established ("# checked:" names how).
    """

    diag: tuple[float, ...]

    def __post_init__(self):
        if not _finite_nonnegative(self.diag):
            for d in self.diag:
                if not _finite_nonnegative((d,)):
                    raise NegativeEntry(f"operator entry {d!r} must be finite and >= 0")

    @classmethod
    def _trusted(cls, diag: tuple[float, ...]) -> DiagonalKraus:
        op = object.__new__(cls)
        vars(op)["diag"] = diag
        return op

    @property
    def n(self) -> int:
        return len(self.diag)


@dataclass(frozen=True)
class OutcomeBranch:
    """One measurement outcome.

    correction[j] is the basis label that index j is relabeled to (by both
    parties).  With the state the step acts on, op, prob and correction
    determine the post-measurement state, which verify_plan computes; the
    branch does not hold it.
    """

    op: DiagonalKraus
    prob: float
    correction: tuple[int, ...]


@dataclass(frozen=True)
class MeasurementStep:
    """A complete generalized measurement, held as its outcomes: the states it
    links are the pair its solver was handed, or the chain link it was lifted
    onto."""

    branches: tuple[OutcomeBranch, ...]
    case_tag: str
    pruned_count: int = 0


def completeness_defect(step: MeasurementStep) -> float:
    """Max deviation of sum_i M_i^dag M_i from identity, per basis index.

    Index j sums diag[j] ** 2 in branch order, so indices with the same
    column of entries have the same sum: each distinct column is summed
    once, and an embedded step's untouched indices share one column.
    """
    columns = set(zip(*(br.op.diag for br in step.branches)))
    return max((abs(sum(map(pow, col, repeat(2))) - 1.0) for col in columns), default=0.0)


def probability_defect(step: MeasurementStep) -> float:
    return abs(sum(br.prob for br in step.branches) - 1.0)


def _trivial_step(n: int) -> MeasurementStep:
    branch = OutcomeBranch(
        # checked: every entry is the constant 1.0.
        op=DiagonalKraus._trusted((1.0,) * n),
        prob=1.0,
        correction=tuple(range(n)),
    )
    return MeasurementStep(branches=(branch,), case_tag=TRIVIAL)


def _trivial_solve(source: SchmidtVector, target: SchmidtVector, n: int) -> bool:
    """solve2's and solve3's preamble: refuses a pair not of dimension n, not majorized
    or with a vanishing source coefficient; True when source equals target or
    the target is flat (maximally entangled: majorization forces the two equal)."""
    if source.n != n or target.n != n:
        raise DimensionMismatch(f"solve{n} requires dimension {n}")
    report = majorizes(source, target)
    if not report.holds:
        raise NotMajorized(report)
    if not source.is_source_grade():
        raise SourceHasZero(f"source {source.amps} has a vanishing coefficient")
    flat = target.squares[0] - target.squares[-1] <= EPS_ZERO
    return flat or states_equal(source, target)


def _cond(a: float, b: float, den: float) -> float:
    """Condition of (a - b) / den: how much the division magnifies the
    rounding that a and b carry in from the chain, at least 1."""
    return max(1.0, (abs(a) + abs(b)) / den)


def _clamp_prob(p: float, label: str, cond: float = 1.0) -> float:
    """p clamped to [0, 1]; negative beyond EPS_CMP * cond is an error.

    cond scales the bound to the conditioning of the formula behind p.  At
    n >= 32 the coefficients reach a block with rounding of order 1e-14,
    and tied middle coefficients give p = (sb1 - sb2) / (s2 - sb2) of order
    -1e-12 where the exact value is 0.
    """
    if p < -EPS_CMP * cond:
        raise SolverInvariantViolated(f"{label} = {p!r} is negative beyond tolerance")
    return min(max(p, 0.0), 1.0)


def _assert_ordering(chain: list[tuple[str, float]], case_tag: str):
    for (la, va), (lb, vb) in zip(chain, chain[1:]):
        if va < vb - EPS_CMP:
            raise SolverInvariantViolated(
                f"{case_tag} ordering violated: {la}={va!r} < {lb}={vb!r}"
            )


def _build_step(specs, case_tag, probs):
    """Assemble branches from (diag entries, correction) specs, pruning
    zero-probability outcomes, and check completeness and the probability sum."""
    branches = []
    pruned = 0
    for (diag, corr), p in zip(specs, probs):
        if p < EPS_ZERO:
            pruned += 1
            continue
        root = p**0.5  # not math.sqrt: last bits differ for some p
        # checked: ratios over a source-grade source (solve2/3), p from _clamp_prob.
        op = DiagonalKraus._trusted(tuple(d * root for d in diag))
        branches.append(OutcomeBranch(op, p, tuple(corr)))
    step = MeasurementStep(branches=tuple(branches), case_tag=case_tag, pruned_count=pruned)
    if completeness_defect(step) > EPS_COMPLETE:
        raise SolverInvariantViolated("completeness sum deviates from identity")
    if probability_defect(step) > EPS_COMPLETE:
        raise SolverInvariantViolated("outcome probabilities do not sum to one")
    return step


def solve3(source: SchmidtVector, target: SchmidtVector) -> MeasurementStep:
    """Single three-outcome measurement for a 3-dimensional transformation.

    The two orderings of the middle coefficients take different operators:
    CASE_I when it shrinks (in squares, ties within EPS_CMP included), else
    CASE_II.  When the routed case's own denominator vanishes, the states
    coincide.  When the routed case fails its own check, the other case is
    built; if that fails too, the routed case's error is raised.
    """
    if _trivial_solve(source, target, 3):
        return _trivial_step(3)
    s2, sb2, sc2 = target.squares
    shrinks = source.squares[1] >= sb2 - EPS_CMP
    cases = (CASE_I, CASE_II) if shrinks else (CASE_II, CASE_I)
    if (s2 - sb2 if shrinks else sb2 - sc2) <= EPS_ZERO:
        return _trivial_step(3)
    errors = []
    for case_tag in cases:
        try:
            return _solve3_case(source, target, case_tag)
        except SolverInvariantViolated as exc:
            errors.append(exc)
    raise errors[0]


def _solve3_case(source, target, case_tag: str) -> MeasurementStep:
    """solve3's step in one case: outcome 1 lands on the target directly, the
    others after one swap each.  Its own denominator, s2 - sb2 for CASE_I and
    sb2 - sc2 for CASE_II, vanishing means that it cannot be built (a flat
    target, s2 - sc2 vanishing, is _trivial_solve's)."""
    a1, b1, c1 = source.amps
    a2, b2, c2 = target.amps
    s1, sb1, sc1 = source.squares
    s2, sb2, sc2 = target.squares
    if (s2 - sb2 if case_tag == CASE_I else sb2 - sc2) <= EPS_ZERO:
        raise SolverInvariantViolated(f"{case_tag} denominator vanishes")
    if case_tag == CASE_I:
        _assert_ordering([("a2", a2), ("a1", a1), ("b1", b1), ("b2", b2), ("c2", c2)], CASE_I)
        cond2, cond3 = _cond(sb1, sb2, s2 - sb2), _cond(sc1, sc2, s2 - sc2)
        p2 = _clamp_prob((sb1 - sb2) / (s2 - sb2), "p2", cond2)
        p3 = _clamp_prob((sc1 - sc2) / (s2 - sc2), "p3", cond3)
        # p2 and p3 enter with weights of at most 1.
        p1 = _clamp_prob(s1 / s2 - (sb2 / s2) * p2 - (sc2 / s2) * p3, "p1", 1 + cond2 + cond3)
        specs = [
            ((a2 / a1, b2 / b1, c2 / c1), (0, 1, 2)),
            ((b2 / a1, a2 / b1, c2 / c1), (1, 0, 2)),
            ((c2 / a1, b2 / b1, a2 / c1), (2, 1, 0)),
        ]
        return _build_step(specs, CASE_I, (p1, p2, p3))

    # Middle coefficient grows.
    _assert_ordering([("a2", a2), ("b2", b2), ("b1", b1), ("c1", c1), ("c2", c2)], CASE_II)
    cond3 = _cond(sb2, sb1, sb2 - sc2)
    specs = [
        ((a2 / a1, b2 / b1, c2 / c1), (0, 1, 2)),
        ((c2 / a1, b2 / b1, a2 / c1), (2, 1, 0)),
        ((a2 / a1, c2 / b1, b2 / c1), (0, 2, 1)),
    ]

    def step(p2, cond2):
        p2 = _clamp_prob(p2, "p2", cond2)
        p3 = _clamp_prob((sb2 - sb1) / (sb2 - sc2), "p3", cond3)
        p1 = _clamp_prob(s1 / s2 - (sc2 / s2) * p2 - p3, "p1", 1 + cond2 + cond3)
        return _build_step(specs, CASE_II, (p1, p2, p3))

    try:
        return step((s2 - s1) / (s2 - sc2), _cond(s2, s1, s2 - sc2))
    except SolverInvariantViolated:  # per index, as in solve2
        return step(((sc1 - sc2) + (sb1 - sb2)) / (s2 - sc2), _cond(sb1 + sc1, sb2 + sc2, s2 - sc2))


def solve2(source: SchmidtVector, target: SchmidtVector) -> MeasurementStep:
    """Single two-outcome measurement for a 2-dimensional transformation."""
    if _trivial_solve(source, target, 2):
        return _trivial_step(2)

    a1, b1 = source.amps
    a2, b2 = target.amps
    s1, sb1 = source.squares
    s2, sb2 = target.squares
    p1 = _clamp_prob((s1 - sb2) / (s2 - sb2), "p1'", _cond(s1, sb2, s2 - sb2))
    specs = [
        ((a2 / a1, b2 / b1), (0, 1)),
        ((b2 / a1, a2 / b1), (1, 0)),
    ]
    try:
        p2 = _clamp_prob((s2 - s1) / (s2 - sb2), "p2'", _cond(s2, s1, s2 - sb2))
        return _build_step(specs, TWO_OUTCOME, (p1, p2))
    except SolverInvariantViolated:
        # Per index: sb1 - sb2 keeps a tiny sb1 that s2 - s1's rounding swamps.
        p2 = _clamp_prob((sb1 - sb2) / (s2 - sb2), "p2'", _cond(sb1, sb2, s2 - sb2))
        return _build_step(specs, TWO_OUTCOME, (p1, p2))
