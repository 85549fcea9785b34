"""Multi-step ladder planning.

The planner bridges source and target through intermediate states that fix
the target's smallest coefficients a few at a time, solving one small block
per step and embedding the block measurement into the full dimension.

The smallest-first construction is not total: for some majorization-feasible
pairs the forced intermediate state is not majorized by its successor, so no
deterministic measurement exists for that link.  Such inputs raise
LadderInfeasible carrying a certificate; they are never silently repaired.
The greatest-first variant, a demonstrator of its own failure mode (rank
collapse), mirrors the ladder's windows: both constructions build their
layouts in one loop, _chain_layouts, over windows of basis indices, and
refuse at their first link that is not majorized, in _link_refusal.  A
chain is its layouts and windows (its sorted states are derived), and
_lift turns every link of any chain into a measurement step.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace
from itertools import chain as concat, repeat
from typing import Optional, Sequence, Union

from .errors import (
    BlockTooLarge,
    ChainInvariantViolated,
    IndexRangeInvalid,
    LadderInfeasible,
    NormalizationUnderflow,
    NotMajorized,
    OmegaNotMajorizing,
    OmegaNotSorted,
    ZeroBlockNorm,
)
from .schmidt import EPS_CMP, EPS_COMPLETE, EPS_NORM, EPS_ZERO, SchmidtVector
from .schmidt import _finite_nonnegative, amps_agree, effective_rank, majorizes, states_equal
from .solvers import (
    DiagonalKraus,
    MeasurementStep,
    OutcomeBranch,
    _trivial_step,
    completeness_defect,
    probability_defect,
    solve2,
    solve3,
)


@dataclass(frozen=True)
class IntermediateChain:
    """Ladder of states from source to target.

    layouts keep the positional arrangement the operators act on; windows[k]
    lists the basis indices, integers strictly increasing, that link k
    transforms.
    states, the layouts sorted, are derived once at construction, where a
    chain of the wrong shape is refused; m and the window indices are kept
    as Python ints, so that the chain's transcript section can be written.
    """

    layouts: tuple[tuple[float, ...], ...]
    m: int
    tilde_values: tuple[float, ...]
    windows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        layouts, windows = self.layouts, self.windows
        if len(windows) != len(layouts) - 1:
            raise ChainInvariantViolated(f"{len(windows)} windows for {len(layouts)} layouts")
        n = len(layouts[0])
        for k, layout in enumerate(layouts):
            if len(layout) != n:
                raise IndexRangeInvalid(f"layout {k} spans {len(layout)} indices, expected {n}")
        for w in windows:
            ok = all(map(_is_index, w)) and all(map(operator.lt, w, w[1:]))
            if not ok or (w and not 0 <= w[0] <= w[-1] < n):
                raise IndexRangeInvalid(f"index range {w} invalid for dimension {n}")
        object.__setattr__(self, "m", _block_size(self.m))
        object.__setattr__(self, "windows", tuple(tuple(map(int, w)) for w in windows))
        # Outside the fields, so eq, repr and hash see the layouts alone.
        object.__setattr__(self, "_states", _layout_states(layouts, n))

    @classmethod
    def _trusted(cls, layouts, m: int, tilde_values, windows) -> IntermediateChain:
        """The chain without its shape checks, for layouts and windows built
        to shape ("# checked:" names how), m and the window indices already
        Python ints; its states are derived as at construction."""
        chain = object.__new__(cls)
        vars(chain).update(layouts=layouts, m=m, tilde_values=tilde_values, windows=windows)
        vars(chain)["_states"] = _layout_states(layouts, len(layouts[0]))
        return chain

    @property
    def states(self) -> tuple[SchmidtVector, ...]:
        return self._states

    @property
    def l(self) -> int:
        return len(self.windows)


def _layout_states(layouts, n: int) -> tuple[SchmidtVector, ...]:
    """The layouts sorted, as states; through SchmidtVector unless one pass finds no fault."""
    amps = [tuple(sorted(x, reverse=True)) for x in layouts]
    if n >= 2 and _finite_nonnegative(list(concat.from_iterable(amps))):
        # checked: n >= 2, finite and >= 0 above, sorted; the drift is tested next.
        states = tuple(map(SchmidtVector._trusted, amps))
        if all(abs(sum(s.squares) - 1.0) <= EPS_NORM for s in states):
            return states
    return tuple(map(SchmidtVector, amps))


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Names the chain step at which a ladder construction breaks down."""

    kind: str  # rank_collapse | negative_coefficient | link_not_majorized | block_not_majorized
    step_index: int
    message: str
    tilde_sq: Optional[float] = None
    intermediate_rank: Optional[int] = None
    target_rank: Optional[int] = None
    failing_k: Optional[int] = None
    margin: Optional[float] = None

    def __str__(self):
        return f"[{self.kind} at step {self.step_index}] {self.message}"


@dataclass(frozen=True)
class LadderPlan:
    """Executable multi-step plan: chain of states plus embedded measurements."""

    chain: IntermediateChain
    steps: tuple[MeasurementStep, ...]
    source: SchmidtVector
    target: SchmidtVector


def _window_weight(layout: Sequence[float], window: Sequence[int]) -> tuple[tuple, float]:
    """layout's entries at window's indices and their norm; ZeroBlockNorm at norm**2 <= EPS_ZERO."""
    vals = tuple(layout[i] for i in window)
    norm_sq = sum(x * x for x in vals)
    if norm_sq <= EPS_ZERO:
        raise ZeroBlockNorm(f"block at indices {tuple(window)} carries no weight")
    return vals, math.sqrt(norm_sq)


def _window_decompose(layout: Sequence[float], window: Sequence[int]) -> tuple[SchmidtVector, float]:
    """window's block of layout, normalized and sorted, and its norm (_window_weight)."""
    vals, c = _window_weight(layout, window)
    # checked: a checked layout's entries over their norm, sorted; choose_omega refuses n < 2.
    return SchmidtVector._trusted(tuple(sorted((x / c for x in vals), reverse=True))), c


def choose_omega(
    block_source: SchmidtVector,
    target_tail: Sequence[float],
    block_norm: float,
) -> SchmidtVector:
    """Block target that fixes the given tail amplitudes, head closing the norm.

    target_tail holds the m-1 full-scale target amplitudes the step should
    produce; the head coefficient absorbs the remaining weight.  The result
    must come out sorted and must majorize block_source, otherwise the block
    split is infeasible and the corresponding error is raised.
    """
    if not (isinstance(block_norm, numbers.Real) and 0.0 < block_norm < math.inf):
        raise ZeroBlockNorm(f"block norm {block_norm!r} must be a finite number > 0")
    m = block_source.n
    if len(target_tail) != m - 1:
        raise IndexRangeInvalid(f"need {m - 1} tail amplitudes, got {len(target_tail)}")
    tail = [float(t) / block_norm for t in target_tail]
    tail_sq = sum(t * t for t in tail)
    head_sq = 1.0 - tail_sq
    if head_sq < -EPS_CMP:
        raise NormalizationUnderflow(
            f"fixed tail weight {tail_sq!r} exceeds the block weight"
        )
    head = math.sqrt(max(head_sq, 0.0))
    if tail and head * head < tail[0] * tail[0] - EPS_CMP:
        raise OmegaNotSorted(
            f"closing coefficient {head!r} below fixed tail head {tail[0]!r}"
        )
    omega = SchmidtVector((head, *tail))
    report = majorizes(block_source, omega)
    if not report.holds:
        raise OmegaNotMajorizing(
            f"block target does not majorize block source (k={report.failing_k})"
        )
    return omega


def _chain_windows(n: int, m: int, greatest_first: bool = False) -> tuple[tuple[int, ...], ...]:
    """The chain's windows, one per link: from the last m indices leftwards,
    each sharing its first index with the next, and the last taking what is
    left; greatest-first's are their mirror, from the first m indices."""
    wins = []
    hi = n  # right edge, exclusive
    while hi > m:
        wins.append(tuple(range(hi - m, hi)))
        hi -= m - 1
    wins.append(tuple(range(hi)))
    l = 1 + math.ceil((n - m) / (m - 1)) if n > m else 1
    if len(wins) != l:
        raise ChainInvariantViolated(f"built {len(wins)} links, expected {l}")
    if greatest_first:
        return tuple(tuple(n - 1 - i for i in reversed(w)) for w in wins)
    return tuple(wins)


def _amp(square: float) -> float:
    return 0.0 if square <= EPS_ZERO else math.sqrt(square)


def _chain_layouts(source, target, windows, at_start: bool) -> tuple[list, list[float]]:
    """The chain's layouts over windows, and each inserted coefficient squared.

    Every layout but the last copies the target's values onto its window,
    except at one end of it (the first index when at_start, else the last):
    there the inserted coefficient squared is sum(head[slot:]) -
    sum(tail[slot + 1:]), head and tail being the source's and target's
    squares, swapped when not at_start.  The last layout is the target.
    """
    head, tail = (source, target) if at_start else (target, source)
    h2, t2 = head.squares, tail.squares
    layout = list(source.amps)
    layouts, tilde_sqs = [source.amps], []
    for w in windows[:-1]:
        slot = w[0] if at_start else w[-1]
        tilde_sq = sum(h2[slot:]) - sum(t2[slot + 1 :])
        for i in w:
            layout[i] = target.amps[i]
        # Clamp vanishing weight to an exact zero so rank counting stays
        # consistent with the squared-domain tolerance.
        layout[slot] = _amp(tilde_sq)
        layouts.append(tuple(layout))
        tilde_sqs.append(tilde_sq)
    layouts.append(target.amps)
    return layouts, tilde_sqs


def _link_refusal(chain: IntermediateChain, message: str) -> Optional[InfeasibilityCertificate]:
    """The certificate, its message formatted with k, next, failing_k and
    margin, for the chain's first link not majorized by its successor; None
    when every link is, so that the chain is realizable (Nielsen's theorem)."""
    for k, (a, b) in enumerate(zip(chain.states, chain.states[1:])):
        report = majorizes(a, b)
        if not report.holds:
            failing_k = report.failing_k
            margin = report.tail_margins[failing_k - 1]
            return InfeasibilityCertificate(
                kind="link_not_majorized",
                step_index=k + 1,
                message=message.format(k=k, next=k + 1, failing_k=failing_k, margin=margin),
                failing_k=failing_k,
                margin=margin,
            )
    return None


def _trivial_chain(source: SchmidtVector, target: SchmidtVector, m: int) -> IntermediateChain:
    return _chain((source.amps, target.amps), (), m, (tuple(range(source.n)),))


def _chain(layouts, tilde_sqs, m, windows) -> IntermediateChain:
    tilde_values = tuple(map(_amp, tilde_sqs))
    # checked: windows of ints from range (_chain_windows, or every index),
    # one per link of the layouts built over them, each as long as the
    # source; m passed the preamble's _block_size.
    return IntermediateChain._trusted(tuple(layouts), int(m), tilde_values, windows)


def _is_index(i) -> bool:
    """i is an integer and not a bool.  int comes first in the isinstance
    tuple: the numbers.Integral lookup alone made a chain's window check
    several times slower."""
    return isinstance(i, (int, numbers.Integral)) and not isinstance(i, bool)


def _block_size(m) -> int:
    """m as a Python int; BlockTooLarge unless it is an integer >= 2."""
    if not isinstance(m, numbers.Integral) or m < 2:
        raise BlockTooLarge(f"block size {m!r} must be an integer >= 2")
    return int(m)


def _trivial_pair(source: SchmidtVector, target: SchmidtVector, m: int) -> bool:
    """The chain builders' preamble: refuses a block size that is not an
    integer >= 2 and a pair that is not majorized; True when source equals
    target, so that one link is the whole chain."""
    _block_size(m)
    report = majorizes(source, target)
    if not report.holds:
        raise NotMajorized(report)
    return states_equal(source, target)


def intermediate_chain(source: SchmidtVector, target: SchmidtVector, m: int) -> IntermediateChain:
    """Ladder of intermediate states fixing the target's smallest coefficients.

    Each intermediate keeps the source prefix, copies the target suffix and
    inserts one closing coefficient.  Raises LadderInfeasible when a link of
    the forced chain is not majorized by its successor (the construction has
    no freedom left, so the failure is a property of the input pair).
    """
    if _trivial_pair(source, target, m):
        return _trivial_chain(source, target, m)
    windows = _chain_windows(source.n, m)
    chain = _chain(*_chain_layouts(source, target, windows, True), m, windows)
    cert = _link_refusal(
        chain,
        "intermediate state {k} is not majorized by state {next} "
        "(tail k={failing_k}, margin {margin:.3e}); "
        "the smallest-first ladder cannot transform this pair",
    )
    if cert is not None:
        raise LadderInfeasible(cert)
    return chain


def greatest_first_chain(
    source: SchmidtVector, target: SchmidtVector, m: int
) -> Union[IntermediateChain, InfeasibilityCertificate]:
    """Demonstrator: transform the greatest coefficients first.

    Returns the chain when it happens to be valid, otherwise an
    InfeasibilityCertificate.  The canonical failure is rank collapse: the
    inserted coefficient hits zero while the target still needs that rank.
    """
    if _trivial_pair(source, target, m):
        return _trivial_chain(source, target, m)
    windows = _chain_windows(source.n, m, greatest_first=True)
    layouts, tilde_sqs = _chain_layouts(source, target, windows, False)
    target_rank = effective_rank(target)
    # Before any layout is sorted: a negative slot clamped to zero leaves a
    # layout that is not normalized.
    for k, (layout, tilde_sq) in enumerate(zip(layouts[1:], tilde_sqs), start=1):
        if tilde_sq < -EPS_ZERO:
            return InfeasibilityCertificate(
                kind="negative_coefficient",
                step_index=k,
                message=(
                    f"inserted coefficient squared is {tilde_sq:.3e} < 0; "
                    "no such intermediate state exists"
                ),
                tilde_sq=tilde_sq,
                target_rank=target_rank,
            )
        rank = sum(1 for a in layout if a > EPS_ZERO)
        if tilde_sq <= EPS_ZERO and target_rank > rank:
            return InfeasibilityCertificate(
                kind="rank_collapse",
                step_index=k,
                message=(
                    f"inserted coefficient vanishes; intermediate rank {rank} "
                    f"< target rank {target_rank}, unreachable by LOCC"
                ),
                tilde_sq=tilde_sq,
                intermediate_rank=rank,
                target_rank=target_rank,
            )

    chain = _chain(layouts, tilde_sqs, m, windows)
    cert = _link_refusal(
        chain, "intermediate {k} not majorized by its successor (tail k={failing_k})"
    )
    return chain if cert is None else cert


def _sort_perm(vals: Sequence[float]) -> list[int]:
    """Stable descending argsort: result[s] is the position holding rank s."""
    return sorted(range(len(vals)), key=lambda r: (-vals[r], r))


def embed_step(block_step: MeasurementStep, chain: IntermediateChain, k: int) -> MeasurementStep:
    """Lift a block measurement onto link k of the chain.

    The step takes chain.layouts[k] to chain.layouts[k + 1] on the basis
    indices chain.windows[k]; its source and target are chain.states[k] and
    chain.states[k + 1], those layouts sorted.  Untouched
    indices carry sqrt(prob) on every branch operator so that per-index
    completeness survives; corrections extend by the identity.  When the
    positional window is unsorted, operators and corrections are conjugated
    by the sorting permutation so they act on the stated indices.
    """
    if not (_is_index(k) and 0 <= k < chain.l):
        raise IndexRangeInvalid(f"link {k!r} not in [0, {chain.l})")
    idx = chain.windows[k]
    source_layout, target_layout = chain.layouts[k], chain.layouts[k + 1]
    n = len(source_layout)
    m = block_step.source.n
    if len(idx) != m:
        raise IndexRangeInvalid(f"index range {idx} incompatible with block size {m}")
    # Completeness misses a bad prob where the window spans every index.  NaN fails.
    in_range = all(0.0 <= br.prob <= 1.0 for br in block_step.branches)
    if not (in_range and probability_defect(block_step) <= EPS_COMPLETE):
        raise ChainInvariantViolated("block step probabilities must lie in [0, 1] and sum to one")

    source_window, c = _window_weight(source_layout, idx)
    target_window = tuple(target_layout[i] for i in idx)
    scaled = sorted((x / c for x in target_window), reverse=True)
    if not amps_agree(scaled, block_step.target.amps):
        raise IndexRangeInvalid("target window content disagrees with the block target")

    sigma = _sort_perm(source_window)
    tau = _sort_perm(target_window)

    branches = []
    for br in block_step.branches:
        diag = [math.sqrt(br.prob)] * n
        corr = list(range(n))
        for s, r in enumerate(sigma):
            diag[idx[r]] = br.op.diag[s]
            corr[idx[r]] = idx[tau[br.correction[s]]]
        raw = tuple(map(operator.mul, diag, source_layout))
        norm = math.sqrt(sum(map(operator.mul, raw, raw)))
        # Scatter through corr: off the window corr is the identity, so
        # only the window's entries move, onto a window of zeros.
        scaled = list(map(operator.truediv, raw, repeat(norm)))
        relabeled = scaled.copy()
        for j in idx:
            relabeled[j] = 0.0
        for j in idx:
            relabeled[corr[j]] = scaled[j]
        if not amps_agree(relabeled, target_layout):
            raise ChainInvariantViolated("embedded branch does not reproduce the next layout")
        branches.append(
            OutcomeBranch(
                op=DiagonalKraus(tuple(diag)),
                prob=br.prob,
                correction=tuple(corr),
                # checked: the checked op above times a layout, over its norm, sorted.
                post_state=SchmidtVector._trusted(tuple(sorted(relabeled, reverse=True))),
            )
        )
    step = MeasurementStep(
        branches=tuple(branches),
        source=chain.states[k],
        target=chain.states[k + 1],
        case_tag=block_step.case_tag,
        pruned_count=block_step.pruned_count,
        window=idx,
    )
    if completeness_defect(step) > EPS_COMPLETE:
        raise ChainInvariantViolated("embedded step loses completeness")
    return step


def _solve_block(block_src: SchmidtVector, omega: SchmidtVector) -> MeasurementStep:
    """Dispatch to the closed-form solvers, reducing away shared zero tails."""
    m = block_src.n
    zeros = sum(1 for a in block_src.amps if a <= EPS_ZERO)
    if zeros == 0:
        return solve3(block_src, omega) if m == 3 else solve2(block_src, omega)
    # Shared zero coordinates stay untouched; solve the positive head only.
    if any(omega.amps[j] > EPS_ZERO for j in range(m - zeros, m)):
        raise OmegaNotMajorizing("target block outranks the source block")
    keep = m - zeros
    if keep < 2:
        return _trivial_step(block_src, omega)
    # checked: keep >= 2 heads of checked, exactly sorted states; dropped tails <= EPS_ZERO.
    sub_src = SchmidtVector._trusted(block_src.amps[:keep])
    sub_tgt = SchmidtVector._trusted(omega.amps[:keep])
    sub = solve3(sub_src, sub_tgt) if keep == 3 else solve2(sub_src, sub_tgt)
    branches = []
    for br in sub.branches:
        diag = br.op.diag + tuple(math.sqrt(br.prob) for _ in range(zeros))
        corr = br.correction + tuple(range(keep, m))
        # checked: a solver's branch, padded with sqrt(prob) and the dropped tail.
        op = DiagonalKraus._trusted(diag)
        post = SchmidtVector._trusted(br.post_state.amps + block_src.amps[keep:])
        branches.append(OutcomeBranch(op, br.prob, corr, post))
    return MeasurementStep(
        branches=tuple(branches),
        source=block_src,
        target=omega,
        case_tag=sub.case_tag,
        pruned_count=sub.pruned_count,
    )


def _lift(chain: IntermediateChain) -> tuple[MeasurementStep, ...]:
    """Every link of chain as a measurement step: each window's block is
    solved towards the next layout's values there and lifted by embed_step."""
    steps = []
    for k, window in enumerate(chain.windows):
        block, norm = _window_decompose(chain.layouts[k], window)
        tail = sorted((chain.layouts[k + 1][i] for i in window), reverse=True)[1:]
        try:
            omega = choose_omega(block, tail, norm)
            block_step = _solve_block(block, omega)
        except (OmegaNotMajorizing, OmegaNotSorted, NotMajorized) as exc:
            # Fires when a link _link_refusal accepts within EPS_CMP fails
            # the block check once normalized by a small block norm (pair
            # 215 of the pinned corpus; one tolerance domain, ROADMAP item 1).
            cert = InfeasibilityCertificate(
                kind="block_not_majorized",
                step_index=k + 1,
                message=str(exc),
            )
            raise LadderInfeasible(cert) from exc
        steps.append(embed_step(block_step, chain, k))
    return tuple(steps)


def plan_full(source: SchmidtVector, target: SchmidtVector) -> LadderPlan:
    """Complete executable plan from source to target.

    Takes every chain, n = 2 included, from intermediate_chain with
    min(n, 3)-wide blocks and lifts it: each block is solved in closed form
    and its operators embedded into the full dimension.  Emits floor(n/2)
    steps for n >= 3 whenever source != target, one per window of
    _chain_windows, which checks its own count.  A one-link chain over every
    index takes the pair's own step: trivial for equal states, solve2 at
    n = 2 (a lift would renormalize the block and move the plan's bits).
    """
    n = source.n
    # intermediate_chain runs the preamble (majorization included) once.
    chain = intermediate_chain(source, target, min(n, 3))
    if chain.l == 1 and states_equal(source, target):
        step = _trivial_step(source, target)
    elif chain.m == 2:
        step = solve2(source, target)
    else:
        return LadderPlan(chain=chain, steps=_lift(chain), source=source, target=target)
    steps = (replace(step, window=tuple(range(n))),)
    return LadderPlan(chain=chain, steps=steps, source=source, target=target)
