"""Command-line front end.

Each invocation reads one JSON problem document from stdin and writes one
result document (JSON transcript or human-readable text) to stdout.

Exit codes: 0 success, 1 input or usage error or a built plan that misses
the parsed pair or fails verification, 2 majorization fails, 3 pair is
feasible but the ladder construction is not.  Exits 0, 2 and 3 answer on
stdout alone; exit 1 writes one ``error:`` line to stderr alone.  Each
command returns its answer (exit code, transcript, human lines), or raises
it as _Refused; only main writes it, through _emit, and only main maps an
error to exit 1.

The argument parser is built once per process, on the first ``main`` call,
and reused: ``parse_args`` leaves it unchanged, so calls stay independent.
Its help and usage errors go to the streams passed to ``main``, by
redirecting ``sys.stdout`` and ``sys.stderr`` while the arguments are parsed.

The oracle, and with it numpy, is imported by the first ``verify_plan`` or
``sample_trajectories`` call, so ``check``, ``demo-infeasible``, every exit 2
or 3 refusal and every input or usage error run without numpy.  The two are
module functions, not a module ``__getattr__``: global lookups never call
that, and callers rebind or patch them by name here (perfbench's tracer
through ``inspect.getattr_static``, the tests with ``monkeypatch``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence, TextIO

from .errors import InvariantViolated, LadderInfeasible, LoccLadderError, ValidationError
from .ladder import InfeasibilityCertificate, greatest_first_chain, plan_full
from .schmidt import MAX_ORACLE_DIM, majorizes
from .transcript import (
    ProblemSpec,
    Transcript,
    _loads,
    certificate_section,
    chain_section,
    frequencies_section,
    majorization_section,
    steps_section,
    verification_section,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_MAJORIZED = 2
EXIT_LADDER_INFEASIBLE = 3

SEED_ENV_VAR = "DLT_SEED"

_Answer = tuple[int, Transcript, list[str]]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locc-ladder",
        description=(
            "Plan, simulate and verify deterministic transformations of "
            "bipartite pure states. Reads a JSON problem document "
            '{"source": [...], "target": [...]} from stdin.'
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--squared",
            action="store_true",
            help="interpret input entries as squared coefficients",
        )
        p.add_argument(
            "--autosort",
            action="store_true",
            help="sort unsorted input instead of rejecting it",
        )
        p.add_argument(
            "--format",
            choices=("human", "machine"),
            default="human",
            help="human-readable text or the JSON transcript",
        )

    common(sub.add_parser("check", help="test the majorization condition"))
    common(sub.add_parser("plan", help="build and verify the full ladder plan"))

    sim = sub.add_parser("simulate", help="Monte Carlo sample plan trajectories")
    common(sim)
    sim.add_argument("--shots", type=int, default=10000, help="number of trajectories")
    sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master seed (default: ${SEED_ENV_VAR} or 0)",
    )
    sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); sampling is serial",
    )

    demo = sub.add_parser(
        "demo-infeasible",
        help="show why transforming the greatest coefficients first breaks down",
    )
    common(demo)
    demo.add_argument(
        "--m", type=int, default=2, help="block size for the demonstrator chain"
    )
    return parser


def verify_plan(plan):
    """oracle.verify_plan, the oracle imported on first call."""
    from .oracle import verify_plan

    return verify_plan(plan)


def sample_trajectories(plan, shots, seed, *, verified=None):
    """oracle.sample_trajectories, the oracle imported on first call."""
    from .oracle import sample_trajectories

    return sample_trajectories(plan, shots, seed, verified=verified)


class _Refused(Exception):
    """Ends a command early; args are its answer (exit code, transcript, human lines)."""


def _read_problem(args, stdin: TextIO) -> ProblemSpec:
    payload = _loads(stdin.read(), "stdin")
    return ProblemSpec.from_payload(
        payload, squared=args.squared, autosort=args.autosort
    )


def _emit(transcript: Transcript, args, stdout: TextIO, human_lines) -> None:
    if args.format == "machine":
        stdout.write(transcript.to_json())
    else:
        for line in human_lines:
            stdout.write(line + "\n")


def _fmt_state(squares) -> str:
    return "(" + ", ".join(f"{x:.12g}" for x in squares) + ")"


def _parse(args, stdin: TextIO):
    """Read the problem from stdin; returns (spec, source, target, report)."""
    spec = _read_problem(args, stdin)
    source, target = spec.parse()
    return spec, source, target, majorizes(source, target)


def _transcript(args, spec: ProblemSpec, report, **sections) -> Transcript:
    return Transcript(
        command=args.command,
        problem=spec.echo(),
        majorization=majorization_section(report),
        **sections,
    )


def _majorized(args, stdin: TextIO, refusal: str):
    """_parse, refusing a pair that is not majorized with exit 2 and the
    human line refusal, formatted with the failing tail index k."""
    spec, source, target, report = _parse(args, stdin)
    if not report.holds:
        lines = [refusal.format(k=report.failing_k)]
        raise _Refused(EXIT_NOT_MAJORIZED, _transcript(args, spec, report), lines)
    return spec, source, target, report


def _planned(args, stdin: TextIO, not_majorized: str, infeasible: str, note=None):
    """_majorized, then plan_full and verify_plan; returns (plan,
    verification, transcript), the transcript holding the plan's chain,
    steps and verification sections.  A pair larger than the oracle can
    verify is an input error before any plan is built.  A pair the ladder
    cannot realize is refused with exit 3, its certificate, note and the
    human text infeasible, formatted with the certificate as cert.  A built
    plan whose chain misses the parsed pair, or that fails verification, is
    an error line."""
    spec, source, target, report = _majorized(args, stdin, not_majorized)
    if source.n > MAX_ORACLE_DIM:
        raise ValidationError(f"oracle capped at dimension {MAX_ORACLE_DIM}")
    try:
        plan = plan_full(source, target)
    except LadderInfeasible as exc:
        cert = exc.certificate
        transcript = _transcript(
            args, spec, report, certificate=certificate_section(cert), note=note
        )
        lines = [infeasible.format(cert=cert)]
        raise _Refused(EXIT_LADDER_INFEASIBLE, transcript, lines) from exc
    layouts = plan.chain.layouts
    if layouts[0] != source.amps or layouts[-1] != target.amps:
        raise InvariantViolated("built plan does not run from the source to the target")
    verification = verify_plan(plan)
    if not verification.passed:
        deviation = f"max deviation {verification.max_deviation:.3e}"
        raise InvariantViolated(f"built plan fails verification ({deviation})")
    transcript = _transcript(
        args,
        spec,
        report,
        chain=chain_section(plan.chain),
        steps=steps_section(plan),
        verification=verification_section(verification),
    )
    return plan, verification, transcript


def cmd_check(args, stdin: TextIO) -> _Answer:
    spec, source, target, report = _parse(args, stdin)
    lines = [
        f"source  lambda = {_fmt_state(source.squares)}",
        f"target  lambda = {_fmt_state(target.squares)}",
        f"majorization holds: {report.holds}",
    ]
    if not report.holds:
        lines.append(f"first failing tail index k = {report.failing_k}")
    code = EXIT_OK if report.holds else EXIT_NOT_MAJORIZED
    return code, _transcript(args, spec, report), lines


def cmd_plan(args, stdin: TextIO) -> _Answer:
    plan, verification, transcript = _planned(
        args,
        stdin,
        "majorization fails at k={k}; no deterministic plan",
        "majorization holds, but the smallest-first ladder cannot\n"
        "realize this pair:\n"
        "  {cert}",
        note="pair is majorization-feasible but the ladder construction is not",
    )
    lines = [f"majorization holds; plan has {len(plan.steps)} step(s)"]
    for k, step in enumerate(plan.steps):
        probs = ", ".join(f"{br.prob:.12g}" for br in step.branches)
        window = list(plan.chain.windows[k])
        lines.append(
            f"step {k}: {step.case_tag} on indices {window}, outcome probs [{probs}]"
        )
    lines.append(f"verification: PASS (max deviation {verification.max_deviation:.3e})")
    return EXIT_OK, transcript, lines


def cmd_simulate(args, stdin: TextIO) -> _Answer:
    if args.shots < 1:
        raise ValidationError(f"--shots must be >= 1, got {args.shots}")
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = int(env) if env is not None else 0
        except ValueError as exc:
            raise ValidationError(f"${SEED_ENV_VAR}={env!r} is not an integer") from exc
    plan, verification, transcript = _planned(
        args,
        stdin,
        "majorization fails at k={k}; nothing to simulate",
        "ladder construction infeasible: {cert}",
    )
    freq = sample_trajectories(plan, args.shots, seed, verified=verification)
    transcript = replace(
        transcript, seed=seed, shots=args.shots, frequencies=frequencies_section(freq)
    )
    lines = [
        f"simulated {args.shots} trajectories with seed {seed}",
        f"target arrival rate: {freq.match_rate:.6f}"
        f" (max final deviation {freq.max_final_dev:.3e})",
    ]
    for k, freqs in enumerate(freq.branch_frequencies):
        shown = ", ".join(f"{f:.6f}" for f in freqs)
        lines.append(f"step {k} branch frequencies: [{shown}]")
    return EXIT_OK, transcript, lines


def cmd_demo_infeasible(args, stdin: TextIO) -> _Answer:
    if args.m < 2:
        raise ValidationError(f"--m must be >= 2, got {args.m}")
    spec, source, target, report = _majorized(
        args, stdin, "majorization fails at k={k}"
    )
    result = greatest_first_chain(source, target, args.m)
    if isinstance(result, InfeasibilityCertificate):
        transcript = _transcript(
            args, spec, report, certificate=certificate_section(result)
        )
        lines = [
            "greatest-first construction is infeasible:",
            f"  {result}",
        ]
    else:
        transcript = _transcript(
            args,
            spec,
            report,
            chain=chain_section(result),
            note="greatest-first chain is feasible for this pair",
        )
        lines = ["greatest-first chain is feasible for this pair:"]
        for k, state in enumerate(result.states):
            lines.append(f"  state {k}: lambda = {_fmt_state(state.squares)}")
    return EXIT_OK, transcript, lines


_COMMANDS = {
    "check": cmd_check,
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "demo-infeasible": cmd_demo_infeasible,
}


def main(
    argv: Optional[Sequence[str]] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        code, transcript, lines = _COMMANDS[args.command](args, stdin)
    except _Refused as exc:
        code, transcript, lines = exc.args
    except (LoccLadderError, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    _emit(transcript, args, stdout, lines)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
