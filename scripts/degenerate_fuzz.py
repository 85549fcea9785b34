#!/usr/bin/env python3
"""Exit codes of `plan` over degenerate fuzz pairs, and why plans fail.

Each trial draws a source floor f from (1e-5, 1e-8, 1e-12), then one pair
of squared coefficients from the degenerate fuzz (a sorted Dirichlet target,
plain, with a zeroed tail or rounded to multiples of 1/8; the source is the
target after a few random averaging moves, plus f on every entry), and runs
it through `plan --squared --autosort --format machine`.  An answer is a
verified plan (exit 0), a refusal (exit 2, not majorized, or exit 3, a
certified ladder refusal) or an error line (exit 1).  The script prints the
count of each exit code, then the exit-1 answers by class of their error
line and by floor, and the exit-3 answers by the kind of certificate their
transcript holds.  Its last line is one sha256 over every answer, in trial
order: the exit code and a newline, then stdout, then stderr, as UTF-8; two
versions of the program that answer every trial alike print the same line.
"""

import argparse
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from locc_ladder.cli import main as cli_main

# The pair generator lives with the tests, beside the pinned corpus drawn
# from it; this script shares it from the repository's tests/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import degenerate_fuzz_pair  # noqa: E402

FLOORS = (1e-5, 1e-8, 1e-12)
# Each exit-1 class and a fragment of its error line.
CLASSES = (
    ("completeness", "completeness sum deviates from identity"),
    ("negative probability", "is negative beyond tolerance"),
    ("ordering", "ordering violated"),
    ("fails verification", "built plan fails verification"),
)


def classify(error_line: str) -> str:
    return next((name for name, part in CLASSES if part in error_line), "other")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    exits, classes, floors, kinds = Counter(), Counter(), Counter(), Counter()
    answers = hashlib.sha256()
    for trial in range(args.trials):
        floor = FLOORS[int(rng.integers(3))]
        source, target = degenerate_fuzz_pair(rng, trial, floor)
        stdin = io.StringIO(json.dumps({"source": source, "target": target}))
        stdout, stderr = io.StringIO(), io.StringIO()
        code = cli_main(
            ["plan", "--squared", "--autosort", "--format", "machine"],
            stdin,
            stdout,
            stderr,
        )
        for part in (f"{code}\n", stdout.getvalue(), stderr.getvalue()):
            answers.update(part.encode())
        exits[code] += 1
        if code == 1:
            classes[classify(stderr.getvalue())] += 1
            floors[floor] += 1
        elif code == 3:
            kinds[json.loads(stdout.getvalue())["certificate"]["kind"]] += 1

    print(f"plan over {args.trials} degenerate fuzz pairs (seed {args.seed}):")
    print("by exit code:")
    for code in sorted(exits):
        print(f"  exit {code}  {exits[code]:7d}")
    print("exit 1 by class:")
    for name in [name for name, _ in CLASSES] + ["other"]:
        print(f"  {name:22s} {classes[name]:7d}")
    print("exit 1 by floor:")
    for floor in sorted(FLOORS, reverse=True):
        print(f"  {floor:<8g} {floors[floor]:7d}")
    print("exit 3 by certificate kind:")
    for kind in sorted(kinds):
        print(f"  {kind:22s} {kinds[kind]:7d}")
    print(f"answers sha256 {answers.hexdigest()}")


if __name__ == "__main__":
    main()
