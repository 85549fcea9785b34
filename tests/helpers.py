"""Independent-check helpers shared across test modules.

Everything here recomputes quantities with a different arithmetic path than
the library (math.fsum over explicit slices, literal matrix products), so
tests of numerical claims do not reuse the code under test.
"""

import dataclasses
import json
import math

import numpy as np

from locc_ladder.oracle import (
    TOL_PATH,
    TOL_TRAJECTORY,
    BranchCheck,
    FullState,
    PathCheck,
    StepCheck,
    TrajectoryRecord,
    apply_correction,
    apply_kraus,
)


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


def forced_chain_layout_squares(source_sq, target_sq, k):
    """Squared layout of the k-th smallest-first intermediate (3-wide blocks),
    recomputed from the defining tail sums rather than the library."""
    n = len(source_sq)
    p = n - 2 * k  # 1-based insertion position
    tilde_sq = math.fsum(source_sq[p - 1 :]) - math.fsum(target_sq[p:])
    return list(source_sq[: p - 1]) + [tilde_sq] + list(target_sq[p:])


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
        all_reach_target=max_final_dev <= TOL_PATH,
    )


def literal_step_checks(plan):
    """verify_plan's step checks by the literal per-branch loop.

    Each branch is applied with apply_kraus and apply_correction, one
    FullState at a time, and its reduced spectrum taken with
    FullState.reduced_spectrum.
    """
    layouts = plan.chain.layouts
    n = plan.source.n
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


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Counter-based stream for one shot, derived from the master seed."""
    key = np.array([seed % (1 << 64), shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def walk_one_shot(runtime, seed: int, shot_index: int) -> TrajectoryRecord:
    """Reference walk of one shot; sample_trajectories and run_trajectory
    must agree with it.

    runtime is the plan's oracle._sampling_runtime.  The shot draws from
    numpy's own Philox stream, adds each branch's probability in branch
    order, takes the first branch whose running sum exceeds its draw times
    the total (else the last), and makes one post state per step.
    """
    rng = shot_rng(seed, shot_index)
    draws = rng.random(len(runtime.steps))
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
