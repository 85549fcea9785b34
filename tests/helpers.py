"""Independent-check helpers shared across test modules.

Everything here recomputes quantities with a different arithmetic path than
the library (math.fsum over explicit slices, literal matrix products), so
tests of numerical claims do not reuse the code under test.  The literal_*
loops are the planner's checks as per-entry loops, which the library's
whole-tuple forms must equal bit for bit, refusals included.
"""

import dataclasses
import json
import math
import numbers
from fractions import Fraction

import numpy as np

from locc_ladder.errors import (
    DimensionTooSmall,
    NegativeEntry,
    NotNormalized,
    NotSorted,
)
from locc_ladder.oracle import (
    TOL_TRAJECTORY,
    TOLERANCES,
    BranchCheck,
    FullState,
    PathCheck,
    StepCheck,
    TrajectoryRecord,
    apply_correction,
    apply_kraus,
)
from locc_ladder.schmidt import EPS_CMP, EPS_NORM
from locc_ladder.solvers import DiagonalKraus, MeasurementStep, OutcomeBranch


def literal_entry_ok(a):
    """The entry rule, literally: a real number and not a bool, that a float
    holds, finite and >= 0."""
    if isinstance(a, bool) or not isinstance(a, numbers.Real):
        return False
    try:
        x = float(a)
    except OverflowError:
        return False
    return a >= 0.0 and math.isfinite(x)


def literal_schmidt_squares(amps):
    """SchmidtVector's checks by the literal per-entry loop: raises what
    SchmidtVector(amps) must raise, else returns the squares it must hold,
    those of the amplitudes as floats."""
    if len(amps) < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {len(amps)}")
    for j, a in enumerate(amps):
        if not literal_entry_ok(a):
            raise NegativeEntry(f"amplitude {a!r} at index {j}")
        if j and amps[j - 1] < a - EPS_CMP:
            raise NotSorted(f"amplitudes increase at index {j}")
    amps = [float(a) for a in amps]
    drift = abs(sum(a * a for a in amps) - 1.0)
    if drift > EPS_NORM:
        raise NotNormalized(f"squared amplitudes sum off by {drift:.3e}")
    return tuple(a * a for a in amps)


def literal_kraus_check(diag):
    """DiagonalKraus's check by the literal per-entry loop."""
    for d in diag:
        if not literal_entry_ok(d):
            raise NegativeEntry(f"operator entry {d!r} must be finite and >= 0")


def literal_majorization(source_sq, target_sq):
    """majorizes' tail margins and failing_k by the literal loops: the
    margins accumulate from the last index, starting at 0.0."""
    n = len(source_sq)
    margins = [0.0] * n
    acc = 0.0
    for k in range(n - 1, -1, -1):
        acc += source_sq[k] - target_sq[k]
        margins[k] = acc
    for k in range(n):
        if (margins[k] < -EPS_CMP) if k else (abs(margins[k]) > EPS_CMP):
            return tuple(margins), k + 1
    return tuple(margins), None


def literal_states_equal(a_sq, b_sq):
    return all(abs(s - t) <= EPS_CMP for s, t in zip(a_sq, b_sq))


def literal_completeness_defect(step):
    """completeness_defect by the literal loop over every basis index."""
    worst = 0.0
    for j in range(step.branches[0].op.n):
        total = sum(br.op.diag[j] ** 2 for br in step.branches)
        worst = max(worst, abs(total - 1.0))
    return worst


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def float_bits(values):
    """values as hex strings, so that equal means bit-equal (-0.0 too)."""
    return [float.hex(float(x)) for x in values]


def asdict_json(transcript):
    """The standard-library reference for Transcript.to_json: json.dumps
    with indent=2 and sort_keys over the deep-copying dataclasses.asdict."""
    return json.dumps(dataclasses.asdict(transcript), indent=2, sort_keys=True) + "\n"


# Ladder pairs (source, target squared coefficients) with ties, zero tails
# and 1e-13 coefficients.
DEGENERATE_PAIRS = [
    # Ties.
    ([0.25] * 4, [0.375, 0.25, 0.25, 0.125]),
    ([0.2] * 5, [0.4, 0.2, 0.2, 0.2, 0.0]),
    ([0.25, 0.25, 0.125, 0.125, 0.125, 0.125], [0.375, 0.25, 0.125, 0.125, 0.125, 0.0]),
    # Zero tails.
    ([0.3, 0.25, 0.2, 0.15, 0.1, 0.0, 0.0], [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0]),
    # 1e-13 coefficients.
    (
        [0.3, 0.25, 0.2, 0.15, 0.1 - 1e-13, 1e-13],
        [0.35, 0.25, 0.2, 0.1, 0.1 - 1e-13, 1e-13],
    ),
    (
        [0.2, 0.2, 0.2, 0.2, 0.2 - 1e-13, 1e-13],
        [0.4, 0.2, 0.2, 0.1, 0.1 - 1e-13, 1e-13],
    ),
]


def dense_pair(n):
    """A ladder pair at dimension n whose steps are three-outcome
    measurements, all of them at n=32 and all but the last two-outcome one
    at n=16, as (source, target) squared coefficients: the source is a
    decaying target averaged over adjacent indices."""
    target = 0.9 ** np.arange(n)
    target /= target.sum()
    source = target.copy()
    for i in range(n - 1):
        a, b = source[i], source[i + 1]
        source[i], source[i + 1] = 0.9 * a + 0.1 * b, 0.1 * a + 0.9 * b
    return sorted(source.tolist(), reverse=True), target.tolist()


def dirichlet_swept_pair(seed, n=64):
    """A Dirichlet(5) target and a source made from it by adjacent averaging
    moves in random order, each pair taking part with probability 0.85."""
    rng = np.random.default_rng(seed)
    target = np.sort(rng.dirichlet(np.full(n, 5.0)))[::-1] + 1e-9
    target /= target.sum()
    source = target.copy()
    for i in rng.permutation(n - 1):
        if rng.random() < 0.85:
            t = rng.random()
            a, b = source[i], source[i + 1]
            source[i], source[i + 1] = t * a + (1 - t) * b, (1 - t) * a + t * b
    source = np.sort(source)[::-1]
    return (source / source.sum()).tolist(), target.tolist()


# The source floors of the pinned degenerate corpus, trial % 4 picking one;
# its pairs are degenerate_fuzz_pair's, drawn in trial order from seed 12.
PIN_FLOORS = (0.0, 1e-5, 1e-8, 1e-12)


def degenerate_fuzz_pair(rng, trial, floor):
    """One pair (source, target) of squared coefficients, n in 2..16, drawn
    as the degenerate fuzz: a sorted Dirichlet target, alpha in {0.1, 1, 5},
    plain, with a zeroed tail or rounded to multiples of 1/8 by trial % 3;
    the source is the target after a few random pairwise averaging moves,
    plus floor on every entry, renormalised and sorted."""
    n = int(rng.integers(2, 17))
    alpha = (0.1, 1.0, 5.0)[int(rng.integers(3))]
    target = np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]
    if trial % 3 == 1 and n > 2:
        target[n - int(rng.integers(1, n - 1)) :] = 0.0
    elif trial % 3 == 2:
        target = np.round(target * 8)
        target[0] += target.sum() == 0
    target /= target.sum()
    source = target.copy()
    for _ in range((1, 2, n, 2 * n)[int(rng.integers(4))]):
        i, j = rng.choice(n, size=2, replace=False)
        t, a, b = rng.random(), source[i], source[j]
        source[i], source[j] = t * a + (1 - t) * b, (1 - t) * a + t * b
    source = np.sort(source + floor)[::-1]
    return (source / source.sum()).tolist(), target.tolist()


def fsum_tail_margins(source_sq, target_sq):
    """Independent recomputation of the majorization tail margins."""
    n = len(source_sq)
    return [math.fsum(source_sq[k:]) - math.fsum(target_sq[k:]) for k in range(n)]


def fsum_majorized(source_sq, target_sq, eps=1e-12):
    margins = fsum_tail_margins(source_sq, target_sq)
    return abs(margins[0]) <= eps and all(m >= -eps for m in margins[1:])


def window_inequality_defect(prev_sq, next_sq, window):
    """Worst violation of the per-window tail-sum inequalities (fsum path)."""
    worst = 0.0
    for r in range(len(window)):
        idx = window[r:]
        src = math.fsum(prev_sq[i] for i in idx)
        dst = math.fsum(next_sq[i] for i in idx)
        worst = max(worst, (dst - src) if r else abs(dst - src))
    return worst


def _exact_majorized(a, b):
    """a is majorized by b, exactly: equal totals and every sum of b's k
    largest at least a's."""
    a, b = sorted(a, reverse=True), sorted(b, reverse=True)
    ahead = [sum(b[:k]) - sum(a[:k]) for k in range(1, len(a) + 1)]
    return ahead[-1] == 0 and min(ahead) >= 0


def _exact_chain(source_sq, target_sq):
    """The smallest-first ladder of 3-wide blocks over the planner's float
    squares, in exact arithmetic: source, intermediates, target.

    Each float square is taken as a Fraction and each vector renormalised
    exactly.  Intermediate k (k = 1, 2, ... while its slot p = n - 1 - 2k
    is at least 1) keeps the source's first p squares, puts the closing
    coefficient squared, sum(source[p:]) - sum(target[p + 1:]), at p and
    copies the target after it.
    """
    src, tgt = ([Fraction(x) for x in v] for v in (source_sq, target_sq))
    src, tgt = ([x / sum(v) for x in v] for v in (src, tgt))
    chain = [src]
    for p in range(len(src) - 3, 0, -2):
        chain.append(src[:p] + [sum(src[p:]) - sum(tgt[p + 1 :])] + tgt[p + 1 :])
    chain.append(tgt)
    return chain


def exact_ladder_feasible(source_sq, target_sq):
    """Whether the smallest-first ladder of 3-wide blocks exists, in exact
    arithmetic over the planner's float squares (_exact_chain).

    The pair must be majorized, no closing coefficient may be negative, and
    every link of source, intermediates, target must be majorized with zero
    slack.
    """
    chain = _exact_chain(source_sq, target_sq)
    if not _exact_majorized(chain[0], chain[-1]):
        return False
    if any(min(state) < 0 for state in chain):
        return False
    return all(_exact_majorized(a, b) for a, b in zip(chain, chain[1:]))


def exact_link_margin(source_sq, target_sq, link, k):
    """The exact tail margin at k (1-based) of _exact_chain's link from
    state link to the next: the sum of the first state's squares from its
    k-th largest on, less the next state's, which majorizes reports as
    tail_margins[k - 1]."""
    a, b = (sorted(v, reverse=True) for v in _exact_chain(source_sq, target_sq)[link : link + 2])
    return sum(a[k - 1 :]) - sum(b[k - 1 :])


def forced_chain_layout_squares(source_sq, target_sq, k):
    """Squared layout of the k-th smallest-first intermediate (3-wide blocks),
    recomputed from the defining tail sums rather than the library."""
    n = len(source_sq)
    p = n - 2 * k  # 1-based insertion position
    tilde_sq = math.fsum(source_sq[p - 1 :]) - math.fsum(target_sq[p:])
    return list(source_sq[: p - 1]) + [tilde_sq] + list(target_sq[p:])


def post_amps(branch, amps):
    """The amplitudes branch leaves from amps, sorted: its operator applied,
    over sqrt(prob), then relabelled by its correction.  The test-side
    reference for the post state, which a branch does not hold."""
    root = math.sqrt(branch.prob)
    out = [0.0] * len(amps)
    for j, (d, a) in enumerate(zip(branch.op.diag, amps)):
        out[branch.correction[j]] = d * a / root
    return sorted(out, reverse=True)


def padded_block_step(step, block_src):
    """step, solved on the positive heads of block_src, padded to its
    dimension by hand: each dropped rank takes sqrt(prob) on every operator
    and keeps its label.  The block step embed_step must lift as it lifts
    step."""
    keep, m = step.branches[0].op.n, block_src.n
    branches = []
    for br in step.branches:
        diag = br.op.diag + tuple(math.sqrt(br.prob) for _ in range(keep, m))
        corr = br.correction + tuple(range(keep, m))
        branches.append(OutcomeBranch(DiagonalKraus(diag), br.prob, corr))
    return MeasurementStep(tuple(branches), step.case_tag, step.pruned_count)


def literal_path_check(plan, path_limit=20000):
    """verify_plan's path check by the literal stack walk.

    Every branch path is walked with apply_kraus and apply_correction, one
    FullState at a time; the stack pops the last branch first, so path
    probabilities are added in descending path order.
    """
    layouts = plan.chain.layouts
    path_count = 1
    for step in plan.steps:
        path_count *= len(step.branches)
    if path_count > path_limit:
        prod = 1.0
        for step in plan.steps:
            prod *= sum(br.prob for br in step.branches)
        return PathCheck(
            enumerated=False,
            path_count=path_count,
            total_prob_dev=abs(prod - 1.0),
            max_final_dev=0.0,
            all_reach_target=True,
        )
    target_matrix = np.diag(np.asarray(layouts[-1], dtype=float))
    total_prob = 0.0
    max_final_dev = 0.0
    stack = [(0, FullState.from_layout(layouts[0]), 1.0)]
    while stack:
        depth, state, acc = stack.pop()
        if depth == len(plan.steps):
            total_prob += acc
            dev = float(np.max(np.abs(state.matrix - target_matrix)))
            max_final_dev = max(max_final_dev, dev)
            continue
        for br in plan.steps[depth].branches:
            post, prob = apply_kraus(state, br.op, "A")
            stack.append((depth + 1, apply_correction(post, br.correction), acc * prob))
    return PathCheck(
        enumerated=True,
        path_count=path_count,
        total_prob_dev=abs(total_prob - 1.0),
        max_final_dev=max_final_dev,
        all_reach_target=max_final_dev <= TOLERANCES["path"],
    )


def literal_step_checks(plan):
    """verify_plan's step checks by the literal per-branch loop.

    Each branch is applied with apply_kraus and apply_correction, one
    FullState at a time, and its reduced spectrum taken with
    FullState.reduced_spectrum.
    """
    layouts = plan.chain.layouts
    n = len(layouts[0])
    step_checks = []
    for k, step in enumerate(plan.steps):
        psi = FullState.from_layout(layouts[k])
        total = np.zeros((n, n))
        for br in step.branches:
            m = np.diag(np.asarray(br.op.diag, dtype=float))
            total += m.T @ m
        completeness_dev = float(np.max(np.abs(total - np.eye(n))))
        prob_sum_dev = abs(sum(br.prob for br in step.branches) - 1.0)
        next_matrix = np.diag(np.asarray(layouts[k + 1], dtype=float))
        next_spectrum = np.asarray(plan.chain.states[k + 1].squares)
        branch_checks = []
        for i, br in enumerate(step.branches):
            post, prob = apply_kraus(psi, br.op, "A")
            prob_dev = abs(prob - br.prob)
            corrected = apply_correction(post, br.correction)
            post_state_dev = float(np.max(np.abs(corrected.matrix - next_matrix)))
            spectrum_dev = float(
                np.max(np.abs(corrected.reduced_spectrum() - next_spectrum))
            )
            branch_checks.append(BranchCheck(i, prob_dev, post_state_dev, spectrum_dev))
        step_checks.append(
            StepCheck(k, completeness_dev, prob_sum_dev, tuple(branch_checks))
        )
    return tuple(step_checks)


def shot_rng(seed: int, shot_index: int, depth: int) -> np.random.Generator:
    """One shot's generator: numpy's Philox keyed by the seed mod 2**64 and
    moved past the ceil(depth / 4) four-word blocks of every earlier shot."""
    bitgen = np.random.Philox(key=seed % (1 << 64))
    bitgen.advance(shot_index * -(-depth // 4))
    return np.random.Generator(bitgen)


def walk_one_shot(runtime, seed: int, shot_index: int) -> TrajectoryRecord:
    """Reference walk of one shot; sample_trajectories and run_trajectory
    must agree with it.

    runtime is the plan's oracle._PlanRuntime.  The shot draws from its
    own numpy generator (shot_rng), adds each branch's probability in branch
    order, takes the first branch whose running sum exceeds its draw times
    the total (else the last), and makes one post state per step.
    """
    depth = len(runtime.steps)
    draws = shot_rng(seed, shot_index, depth).random(depth)
    psi = runtime.start
    path = []
    for k, (scales, invs) in enumerate(runtime.steps):
        outs = [scale * psi for scale in scales]
        probs = [float(np.sum(out * out)) for out in outs]
        u = draws[k] * sum(probs)
        chosen = len(probs) - 1
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                chosen = i
                break
        inv = invs[chosen]
        psi = outs[chosen][inv][:, inv] / math.sqrt(probs[chosen])
        path.append((k, chosen))
    dev = float(np.max(np.abs(psi - runtime.target)))
    return TrajectoryRecord(
        seed=seed,
        shot_index=shot_index,
        path=tuple(path),
        final_dev=dev,
        matched_target=dev <= TOL_TRAJECTORY,
    )
