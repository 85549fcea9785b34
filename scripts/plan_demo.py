#!/usr/bin/env python3
"""End-to-end demo on the bundled 4-dimensional example.

Builds the two-step plan, prints the chain, the measurement operators and
the verification summary, then Monte Carlo samples the protocol.
"""

import argparse

from locc_ladder import (
    majorizes,
    plan_full,
    sample_trajectories,
    validate,
    verify_plan,
)

SOURCE = [0.4, 0.3, 0.2, 0.1]
TARGET = [0.55, 0.25, 0.15, 0.05]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    source = validate(SOURCE, squared=True)
    target = validate(TARGET, squared=True)
    report = majorizes(source, target)
    print(f"source lambda = {SOURCE}")
    print(f"target lambda = {TARGET}")
    print(f"majorization holds: {report.holds}, tail margins {report.tail_margins}")

    plan = plan_full(source, target)
    print(f"\nplan: {len(plan.steps)} steps")
    for k, state in enumerate(plan.chain.states):
        print(f"  chain state {k}: lambda = {tuple(round(x, 12) for x in state.squares)}")
    for k, step in enumerate(plan.steps):
        print(f"\nstep {k}: {step.case_tag} on indices {plan.chain.windows[k]}")
        for i, br in enumerate(step.branches):
            diag = tuple(round(d, 6) for d in br.op.diag)
            print(
                f"  outcome {i}: p = {br.prob:.12g}, diag = {diag}, "
                f"relabel = {br.correction}"
            )

    verification = verify_plan(plan)
    paths = verification.path_check
    walked = "enumerated" if paths.enumerated else "counted, too many to enumerate"
    print(
        f"\nverification: {'PASS' if verification.passed else 'FAIL'} "
        f"(max deviation {verification.max_deviation:.3e}, "
        f"{paths.path_count} branch paths {walked})"
    )

    # Shots descend the path table of a report that walked every path.
    freq = sample_trajectories(plan, args.shots, args.seed, verified=verification)
    print(
        f"\nsimulated {args.shots} trajectories (seed {args.seed}): "
        f"{freq.match_rate:.2%} reached the target "
        f"(max deviation {freq.max_final_dev:.3e})"
    )
    for k, freqs in enumerate(freq.branch_frequencies):
        probs = [br.prob for br in plan.steps[k].branches]
        print(f"  step {k}: empirical {tuple(round(f, 5) for f in freqs)}"
              f" vs analytic {tuple(round(p, 5) for p in probs)}")


if __name__ == "__main__":
    main()
