"""Independent-check helpers shared across test modules.

Everything here recomputes quantities with a different arithmetic path than
the library (math.fsum over explicit slices, literal matrix products), so
tests of numerical claims do not reuse the code under test.
"""

import math

import numpy as np

from locc_ladder.oracle import (
    TOL_PATH,
    FullState,
    PathCheck,
    apply_correction,
    apply_kraus,
)


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
