"""Acceptance suite: one test per acceptance criterion, each printing a
[PASS] line with its key numbers (run with -s or -v to see them).

Criterion 3 appears twice.  test_criterion_3_ladder_structure asserts the
structural guarantees on every plan the builder emits and independently
re-verifies every refusal; it passes.  test_criterion_3_totality_over_
feasible_pairs asserts the stated expectation that every majorization-
feasible pair yields a plan; that expectation is mathematically
unattainable for the pinned construction (see the README section
"Known limitation: the ladder is not total") and the test fails by design
rather than being weakened.  The minimal counterexample is
lambda_source=(0.25,0.25,0.25,0.25) -> lambda_target=(0.3,0.3,0.3,0.1).
"""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from locc_ladder import (
    DiagonalKraus,
    InfeasibilityCertificate,
    LadderInfeasible,
    greatest_first_chain,
    majorizes,
    plan_full,
    sample_trajectories,
    solve3,
    validate,
    verify_plan,
)
from locc_ladder.cli import main

from helpers import (
    forced_chain_layout_squares,
    fsum_majorized,
    fsum_tail_margins,
    window_inequality_defect,
)
from sampling import mix_down, random_feasible_pair, random_spectrum


def _pass(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


# --------------------------------------------------------------------------
# Criterion 1: majorization agrees with an independent tail-sum oracle.
# --------------------------------------------------------------------------


def test_criterion_1_majorization_oracle_agreement():
    rng = np.random.default_rng(101)
    trials = 10_000
    disagreements = 0
    for trial in range(trials):
        n = int(rng.integers(2, 17))
        kind = trial % 10
        if kind < 4:
            source, target = random_feasible_pair(rng, n)
        elif kind < 8:
            source = validate(random_spectrum(rng, n).tolist(), squared=True)
            target = validate(random_spectrum(rng, n).tolist(), squared=True)
        elif kind < 9:
            source = validate(random_spectrum(rng, n).tolist(), squared=True)
            target = source
        else:
            source, target = random_feasible_pair(rng, n)
            bumped = np.asarray(target.squares)
            bumped[int(rng.integers(0, n))] += 1e-9
            target = validate(
                sorted(bumped / bumped.sum(), reverse=True), squared=True
            )
        report = majorizes(source, target)
        margins = fsum_tail_margins(source.squares, target.squares)
        oracle_holds = abs(margins[0]) <= 1e-12 and all(
            m >= -1e-12 for m in margins[1:]
        )
        oracle_failing = None
        for k, m in enumerate(margins):
            if (abs(m) > 1e-12) if k == 0 else (m < -1e-12):
                oracle_failing = k + 1
                break
        same = (
            report.holds == oracle_holds
            and report.failing_k == oracle_failing
            and all(
                abs(a - b) <= 1e-12 for a, b in zip(report.tail_margins, margins)
            )
        )
        disagreements += not same
    assert disagreements == 0
    _pass("criterion 1", f"{trials} random pairs, 0 disagreements")


# --------------------------------------------------------------------------
# Criterion 2: 3x3 solver correctness on fixtures and 10^4 random pairs.
# --------------------------------------------------------------------------


def _independent_step_checks(step, source, target):
    """Completeness, probability sum and branch states recomputed from the
    raw branch data, without the solver's own helpers."""
    n = source.n
    completeness = max(
        abs(math.fsum(br.op.diag[j] ** 2 for br in step.branches) - 1.0)
        for j in range(n)
    )
    prob_sum = abs(math.fsum(br.prob for br in step.branches) - 1.0)
    state_dev = 0.0
    for br in step.branches:
        raw = [d * a for d, a in zip(br.op.diag, source.amps)]
        norm = math.sqrt(math.fsum(x * x for x in raw))
        out = [0.0] * n
        for j, x in enumerate(raw):
            out[br.correction[j]] = x / norm
        out.sort(reverse=True)
        state_dev = max(
            state_dev, max(abs(g - w) for g, w in zip(out, target.amps))
        )
    return completeness, prob_sum, state_dev


def test_criterion_2_three_dim_solver():
    case1 = solve3(
        validate([0.5, 0.3, 0.2], squared=True),
        validate([0.7, 0.2, 0.1], squared=True),
    )
    assert [br.prob for br in case1.branches] == pytest.approx(
        [19 / 30, 1 / 5, 1 / 6], abs=1e-12
    )
    case2 = solve3(
        validate([0.4, 0.35, 0.25], squared=True),
        validate([0.5, 0.4, 0.1], squared=True),
    )
    assert [br.prob for br in case2.branches] == pytest.approx(
        [7 / 12, 1 / 4, 1 / 6], abs=1e-12
    )

    rng = np.random.default_rng(202)
    trials = 10_000
    worst = [0.0, 0.0, 0.0]
    for trial in range(trials):
        alpha = (0.5, 1.0, 3.0)[trial % 3]
        source, target = random_feasible_pair(rng, 3, alpha=alpha)
        step = solve3(source, target)
        checks = _independent_step_checks(step, source, target)
        worst = [max(w, c) for w, c in zip(worst, checks)]
        for br in step.branches:
            assert br.prob >= -1e-12  # first-outcome weight stays physical
    assert worst[0] <= 1e-12, f"completeness defect {worst[0]:.3e}"
    assert worst[1] <= 1e-12, f"probability sum defect {worst[1]:.3e}"
    assert worst[2] <= 1e-10, f"branch state defect {worst[2]:.3e}"
    _pass(
        "criterion 2",
        f"fixtures + {trials} feasible pairs; worst completeness "
        f"{worst[0]:.1e}, prob-sum {worst[1]:.1e}, state {worst[2]:.1e}",
    )


# --------------------------------------------------------------------------
# Criterion 3: ladder structure over 10^3 random feasible pairs.
# --------------------------------------------------------------------------


def _criterion_3_pairs():
    rng = np.random.default_rng(303)
    for trial in range(1000):
        n = 3 + trial % 14  # n in [3, 16]
        alpha = (0.5, 1.0, 3.0)[trial % 3]
        yield random_feasible_pair(rng, n, alpha=alpha)


def _fixture_plan_checks():
    source = validate([0.4, 0.3, 0.2, 0.1], squared=True)
    target = validate([0.55, 0.25, 0.15, 0.05], squared=True)
    plan = plan_full(source, target)
    chain_sq = [s.squares for s in plan.chain.states]
    assert chain_sq[1] == pytest.approx((0.4, 0.4, 0.15, 0.05), abs=1e-12)
    assert [br.prob for br in plan.steps[0].branches] == pytest.approx(
        [23 / 35, 1 / 5, 1 / 7], abs=1e-12
    )
    assert [br.prob for br in plan.steps[1].branches] == pytest.approx(
        [1 / 2, 1 / 2], abs=1e-12
    )


def test_criterion_3_ladder_structure():
    _fixture_plan_checks()
    built = refused = 0
    for source, target in _criterion_3_pairs():
        n = source.n
        try:
            plan = plan_full(source, target)
        except LadderInfeasible as exc:
            # Every refusal must be genuine: recompute the forced chain and
            # confirm the named link really fails majorization.
            refused += 1
            cert = exc.certificate
            assert cert.kind == "link_not_majorized"
            prev_sq = (
                list(source.squares)
                if cert.step_index == 1
                else forced_chain_layout_squares(
                    source.squares, target.squares, cert.step_index - 1
                )
            )
            next_sq = (
                list(target.squares)
                if cert.step_index == n // 2
                else forced_chain_layout_squares(
                    source.squares, target.squares, cert.step_index
                )
            )
            assert not fsum_majorized(
                sorted(prev_sq, reverse=True), sorted(next_sq, reverse=True)
            ), "builder refused a pair whose forced chain is actually fine"
            continue
        built += 1
        assert len(plan.steps) == n // 2
        for x, y, w in zip(
            plan.chain.layouts, plan.chain.layouts[1:], plan.chain.windows
        ):
            x_sq = [a * a for a in x]
            y_sq = [a * a for a in y]
            assert window_inequality_defect(x_sq, y_sq, w) <= 1e-12
        for k, layout in enumerate(plan.chain.layouts[1:-1], start=1):
            assert layout[n - 2 * k :] == target.amps[n - 2 * k :]
    assert built + refused == 1000
    assert built > 0
    _pass(
        "criterion 3 (structure)",
        f"{built} plans verified structurally, {refused} refusals "
        "independently confirmed genuine",
    )


def test_criterion_3_totality_over_feasible_pairs():
    refusals = 0
    for source, target in _criterion_3_pairs():
        try:
            plan_full(source, target)
        except LadderInfeasible:
            refusals += 1
    if refusals:
        pytest.fail(
            f"{refusals} of 1000 majorization-feasible pairs admit no "
            "smallest-first ladder: the forced intermediate (source prefix + "
            "closing coefficient + copied target tail) is not majorized by "
            "its successor, so no deterministic measurement exists for that "
            "link, and no choice within the pinned chain shape can avoid it. "
            "Minimal example: lambda_source=(0.25,0.25,0.25,0.25) -> "
            "lambda_target=(0.3,0.3,0.3,0.1). Every refusal counted here is "
            "re-verified against an independent tail-sum check in "
            "test_criterion_3_ladder_structure. This failure is expected and "
            "documented; see README, 'Known limitation: the ladder is not "
            "total'."
        )
    _pass("criterion 3 (totality)", "all 1000 feasible pairs planned")


# --------------------------------------------------------------------------
# Criterion 4: seeded end-to-end determinism of the running example.
# --------------------------------------------------------------------------


def test_criterion_4_end_to_end_determinism():
    source = validate([0.4, 0.3, 0.2, 0.1], squared=True)
    target = validate([0.55, 0.25, 0.15, 0.05], squared=True)
    plan = plan_full(source, target)
    shots = 100_000
    report = sample_trajectories(plan, shots, seed=404)
    assert report.match_rate == 1.0
    assert report.max_final_dev <= 1e-8
    analytic = [[23 / 35, 1 / 5, 1 / 7], [1 / 2, 1 / 2]]
    for freqs, probs in zip(report.branch_frequencies, analytic):
        for f, p in zip(freqs, probs):
            bound = 3 * math.sqrt(p * (1 - p) / shots)
            assert abs(f - p) <= bound, (f, p, bound)
    _pass(
        "criterion 4",
        f"{shots} trajectories, 100% arrival (max dev "
        f"{report.max_final_dev:.1e}), all frequencies within 3 sigma",
    )


# --------------------------------------------------------------------------
# Criterion 5: oracle equivalence for 10^3 random plans.
# --------------------------------------------------------------------------


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(505)
    plans_checked = 0
    attempts = 0
    worst_prob = worst_state = worst_spec = 0.0
    while plans_checked < 1000:
        n = 2 + plans_checked % 11  # n in [2, 12]
        attempts += 1
        assert attempts < 50_000, "sampler failed to find plannable pairs"
        source, target = random_feasible_pair(rng, n)
        try:
            plan = plan_full(source, target)
        except LadderInfeasible:
            continue
        # Full path enumeration on a subset; per-step checks everywhere.
        limit = 20000 if plans_checked % 20 == 0 else 1
        report = verify_plan(plan, path_limit=limit)
        assert report.passed
        for s in report.step_checks:
            for b in s.branch_checks:
                worst_prob = max(worst_prob, b.prob_dev)
                worst_state = max(worst_state, b.post_state_dev)
                worst_spec = max(worst_spec, b.spectrum_dev)
        plans_checked += 1
    assert worst_prob <= 1e-10
    assert worst_state <= 1e-10
    assert worst_spec <= 1e-10
    _pass(
        "criterion 5",
        f"1000 plans ({attempts} draws); worst prob dev {worst_prob:.1e}, "
        f"state dev {worst_state:.1e}, spectrum dev {worst_spec:.1e}",
    )


# --------------------------------------------------------------------------
# Criterion 6: greatest-first negative result and collapse frequency.
# --------------------------------------------------------------------------


def test_criterion_6_greatest_first_negative_result():
    source = validate([0.4, 0.3, 0.3], squared=True)
    target = validate([0.7, 0.2, 0.1], squared=True)
    cert = greatest_first_chain(source, target, 2)
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.kind == "rank_collapse"
    assert cert.step_index == 1
    assert abs(cert.tilde_sq) <= 1e-12
    assert cert.intermediate_rank == 2
    assert cert.target_rank == 3

    rng = np.random.default_rng(606)
    trials = 10_000
    outcomes = {"chain": 0, "rank_collapse": 0, "negative_coefficient": 0,
                "link_not_majorized": 0}
    for trial in range(trials):
        n = int(rng.integers(3, 13))
        m = 2 + trial % 2
        source, target = random_feasible_pair(rng, n)
        result = greatest_first_chain(source, target, m)
        if isinstance(result, InfeasibilityCertificate):
            outcomes[result.kind] += 1
        else:
            outcomes["chain"] += 1
    # An exactly vanishing inserted coefficient has measure zero under
    # continuous sampling; a negative inserted weight is the same failure
    # hit past the boundary, so both count toward the collapse family.
    collapse_family = outcomes["rank_collapse"] + outcomes["negative_coefficient"]
    _pass(
        "criterion 6",
        f"fixture certificate exact; over {trials} feasible pairs the "
        f"greatest-first construction lost required rank (vanishing or "
        f"negative inserted weight) in {collapse_family / trials:.1%} of "
        f"cases (full breakdown {outcomes}; informational, no threshold)",
    )


# --------------------------------------------------------------------------
# Criterion 7: fault injection is always detected.
# --------------------------------------------------------------------------


def test_criterion_7_fault_injection():
    source = validate([0.4, 0.3, 0.2, 0.1], squared=True)
    target = validate([0.55, 0.25, 0.15, 0.05], squared=True)
    plan = plan_full(source, target)
    injected = 0
    for s, step in enumerate(plan.steps):
        for b, branch in enumerate(step.branches):
            for e in range(len(branch.op.diag)):
                for delta in (1e-6, -1e-6):
                    diag = list(branch.op.diag)
                    diag[e] += delta
                    if diag[e] < 0:
                        continue
                    bad_branch = dataclasses.replace(
                        branch, op=DiagonalKraus(tuple(diag))
                    )
                    branches = list(step.branches)
                    branches[b] = bad_branch
                    bad_step = dataclasses.replace(step, branches=tuple(branches))
                    steps = list(plan.steps)
                    steps[s] = bad_step
                    bad_plan = dataclasses.replace(plan, steps=tuple(steps))
                    report = verify_plan(bad_plan)
                    assert not report.passed, (s, b, e, delta)
                    injected += 1
    assert injected >= 40
    _pass("criterion 7", f"all {injected} single-entry faults (+/-1e-6) detected")


# --------------------------------------------------------------------------
# Criterion 8: byte-identical simulation output, including parallel runs.
# --------------------------------------------------------------------------


def _run_simulate(extra):
    payload = json.dumps(
        {"source": [0.4, 0.3, 0.2, 0.1], "target": [0.55, 0.25, 0.15, 0.05]}
    )
    stdout = io.StringIO()
    code = main(
        ["simulate", "--squared", "--format", "machine", "--shots", "2000",
         "--seed", "808"] + extra,
        stdin=io.StringIO(payload),
        stdout=stdout,
    )
    assert code == 0
    return stdout.getvalue()


def test_criterion_8_reproducibility():
    first = _run_simulate([])
    second = _run_simulate([])
    assert first == second
    parallel = _run_simulate(["--workers", "4"])
    assert parallel == first
    uneven = _run_simulate(["--workers", "3"])
    assert uneven == first
    _pass(
        "criterion 8",
        "byte-identical transcripts across reruns and 1/3/4-worker execution",
    )
