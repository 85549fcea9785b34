#!/usr/bin/env python3
"""Frequency of greatest-first rank collapse over random feasible pairs.

Transforming the greatest coefficients first forces an inserted coefficient
whose weight can vanish (or go negative) while the target still needs that
rank, after which no local protocol can finish the job.  This experiment
counts how often random feasible pairs trigger each failure mode.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from locc_ladder import InfeasibilityCertificate, greatest_first_chain

# The random pair generators live with the tests, beside their other
# references; this script shares them from the repository's tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from sampling import random_feasible_pair  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=606)
    parser.add_argument("--m", type=int, default=2, help="block size")
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=12)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    outcomes = Counter()
    for _ in range(args.trials):
        n = int(rng.integers(args.min_n, args.max_n + 1))
        source, target = random_feasible_pair(rng, n)
        result = greatest_first_chain(source, target, args.m)
        if isinstance(result, InfeasibilityCertificate):
            outcomes[result.kind] += 1
        else:
            outcomes["feasible_chain"] += 1

    print(f"greatest-first outcomes over {args.trials} feasible pairs "
          f"(m={args.m}, n in [{args.min_n}, {args.max_n}]):")
    for kind, count in outcomes.most_common():
        print(f"  {kind:22s} {count:7d}  ({100 * count / args.trials:.2f}%)")
    lost_rank = outcomes["rank_collapse"] + outcomes["negative_coefficient"]
    print(f"\nrank-loss family (vanishing or negative inserted weight): "
          f"{100 * lost_rank / args.trials:.2f}%")


if __name__ == "__main__":
    main()
