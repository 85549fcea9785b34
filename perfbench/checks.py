"""Correctness checks on what the CLI answered, run outside the timed region.

Each document's answer is judged against the benchmark's own knowledge of
the input (its numpy tail-sum majorization test), never against the
program's planner:

- a pair that is not majorized must exit 2; any other exit is wrong;
- a majorized pair must exit 0 (a verified plan) or 3 (a certified ladder
  refusal), and which one follows from the benchmark's own chain test: where
  every ladder link is majorized the answer must not be a refusal, and where
  some link clearly is not it must not be a plan.  Exit 1 on these valid
  documents is an internal error, counted as a failed document, not as a
  wrong answer;
- every transcript validates against ``locc_ladder.load_schema()`` and
  echoes the input it was given;
- exit 0 implies ``verification.passed``, and a simulate transcript must
  report ``match_rate == 1`` for the shots and seed it was asked for.
"""

from __future__ import annotations

import json

from workloads import TAIL_TOL, Doc

OUTCOMES = {0: "verified", 1: "internal-error", 2: "not-majorized", 3: "ladder-infeasible"}

# Ladder margins (workloads.ladder_link_margin) at or above LADDER_EXISTS
# mean every link is majorized; below LADDER_REFUSED some link clearly is
# not.  Between the two either answer is accepted.  Links of a feasible
# ladder touch zero margin, so their margins sit within a few 1e-16 of it;
# refused pairs in the workloads lie below -1e-7.
LADDER_EXISTS = -TAIL_TOL
LADDER_REFUSED = -1e-9


def make_validator():
    """Schema validator for transcripts, from the program's own schema."""
    import jsonschema
    from locc_ladder import load_schema

    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_answer(doc: Doc, code: int, stdout: str, validator) -> list[str]:
    """Problems with one answer; an empty list means it is correct."""
    if code not in OUTCOMES:
        return [f"exit code {code} is not one the CLI documents"]
    if not doc.majorized:
        if code != 2:
            return [f"exit {code}, but the pair is not majorized: expected 2"]
    elif code == 2:
        return ["exit 2, but the pair is majorized: expected 0 or 3"]
    elif code == 3 and doc.ladder_margin >= LADDER_EXISTS:
        return ["exit 3, but every ladder link is majorized: expected 0"]
    elif code == 0 and doc.ladder_margin < LADDER_REFUSED:
        return ["exit 0, but a ladder link is not majorized: expected 3"]
    elif code == 1 and not stdout:
        return []  # internal error: counted as failed, nothing to check
    try:
        transcript = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = [
        f"schema: {error.message} at {list(error.absolute_path)}"
        for error in validator.iter_errors(transcript)
    ]
    if problems:
        return problems
    payload = doc.payload
    problem = transcript["problem"]
    if transcript["command"] != doc.argv[0]:
        problems.append(f"command {transcript['command']!r} != {doc.argv[0]!r}")
    if problem["source"] != payload["source"] or problem["target"] != payload["target"]:
        problems.append("transcript does not echo the input pair")
    if transcript["majorization"]["holds"] != doc.majorized:
        problems.append("majorization.holds disagrees with the tail-sum test")
    if code == 3 and transcript["certificate"] is None:
        problems.append("exit 3 without an infeasibility certificate")
    if code == 0:
        verification = transcript["verification"]
        if verification is None or not verification["passed"]:
            problems.append("exit 0 but verification did not pass")
        if doc.argv[0] == "simulate":
            freq = transcript["frequencies"]
            if freq is None or freq["match_rate"] != 1:
                problems.append("simulate: match_rate is not 1")
            if transcript["shots"] != int(_flag(doc.argv, "--shots")):
                problems.append("simulate: shots differ from the request")
            if transcript["seed"] != int(_flag(doc.argv, "--seed")):
                problems.append("simulate: seed differs from the request")
    return problems


def check_worker_invariance(docs: list[Doc], digests: list[bytes]) -> list[str]:
    """simulate: the same pair and seed must print the same bytes at every
    --workers value; compared by the digest of each document's stdout."""
    by_call: dict = {}
    problems = []
    for doc, out in zip(docs, digests):
        if doc.argv[0] != "simulate":
            continue
        argv = list(doc.argv)
        i = argv.index("--workers")
        key = (doc.text, tuple(argv[:i] + argv[i + 2 :]))
        first = by_call.setdefault(key, (argv[i + 1], out))
        if first[1] != out:
            problems.append(
                f"simulate output at --workers {argv[i + 1]} differs from --workers {first[0]}"
            )
    return problems
