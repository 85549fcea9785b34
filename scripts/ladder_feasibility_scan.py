#!/usr/bin/env python3
"""How often is the smallest-first ladder infeasible for feasible pairs?

The ladder fixes the target's two smallest outstanding coefficients per
step, which forces the value of the one remaining free coefficient.  For
some majorization-feasible pairs that forced coefficient overshoots what
the next link can absorb, and the construction provably cannot proceed
(the planner then raises with a certificate).  This scan measures the rate
at which random feasible pairs hit that region, per dimension and sampler
sharpness, with the median margin by which the refused pairs' failing link
misses majorization, and prints the minimal hand-checkable example.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from locc_ladder import LadderInfeasible, intermediate_chain, majorizes, validate

# The random pair generators live with the tests, beside their other
# references; this script shares them from the repository's tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from sampling import random_feasible_pair  # noqa: E402


def scan(rng, n, trials, alpha):
    """Refusal margins and the count of feasible chains with an unsorted
    layout, over trials random feasible pairs."""
    margins = []
    unsorted_layout = 0
    for _ in range(trials):
        source, target = random_feasible_pair(rng, n, alpha=alpha)
        try:
            chain = intermediate_chain(source, target, 3)
        except LadderInfeasible as exc:
            margins.append(exc.certificate.margin)
            continue
        for layout in chain.layouts[1:-1]:
            if any(layout[i] < layout[i + 1] - 1e-15 for i in range(n - 1)):
                unsorted_layout += 1
                break
    return margins, unsorted_layout


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--alphas", type=float, nargs="+", default=[0.5, 1.0, 5.0])
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    print("minimal example: lambda (0.25, 0.25, 0.25, 0.25) -> (0.3, 0.3, 0.3, 0.1)")
    source = validate([0.25] * 4, squared=True)
    target = validate([0.3, 0.3, 0.3, 0.1], squared=True)
    print(f"  majorization holds: {majorizes(source, target).holds}")
    try:
        intermediate_chain(source, target, 3)
    except LadderInfeasible as exc:
        print(f"  ladder: {exc.certificate}")

    print(f"\nrates over {args.trials} feasible pairs per cell "
          "(infeasible% / unsorted-but-feasible% / median refusal margin):")
    header = "  n  " + "".join(f"alpha={a:<22g}" for a in args.alphas)
    print(header)
    for n in (4, 5, 6, 8, 10, 12, 16):
        row = f"{n:4d} "
        for alpha in args.alphas:
            margins, unsorted = scan(rng, n, args.trials, alpha)
            median = f"{np.median(margins):10.3e}" if margins else f"{'-':>10}"
            row += (f"{100 * len(margins) / args.trials:5.1f} / "
                    f"{100 * unsorted / args.trials:5.1f} / {median}  ")
        print(row)


if __name__ == "__main__":
    main()
