import ast
import dataclasses
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_ladder import (
    DiagonalKraus,
    DimensionMismatch,
    FullState,
    apply_correction,
    apply_kraus,
    plan_full,
    run_trajectory,
    sample_trajectories,
    solve3,
    validate,
    verify_plan,
)
from locc_ladder import cli, oracle
from locc_ladder.errors import LadderInfeasible, LoccLadderError, ValidationError
from locc_ladder.oracle import _sampling_runtime, _shot_draws

from helpers import (
    DEGENERATE_PAIRS,
    dense_pair,
    dirichlet_swept_pair,
    literal_path_check,
    literal_step_checks,
    shot_rng,
    walk_one_shot,
)


def _replace_branch(plan, k, i, **changes):
    """Copy of plan with branch i of step k changed."""
    step = plan.steps[k]
    branches = list(step.branches)
    branches[i] = dataclasses.replace(branches[i], **changes)
    steps = list(plan.steps)
    steps[k] = dataclasses.replace(step, branches=tuple(branches))
    return dataclasses.replace(plan, steps=tuple(steps))


def perturb_plan(plan, step_idx, branch_idx, entry_idx, delta):
    """Copy of the plan with one operator entry shifted by delta."""
    diag = list(plan.steps[step_idx].branches[branch_idx].op.diag)
    diag[entry_idx] += delta
    return _replace_branch(plan, step_idx, branch_idx, op=DiagonalKraus(tuple(diag)))


class TestFullState:
    def test_from_layout_and_norm(self):
        state = FullState.from_layout(validate([0.5, 0.5], squared=True).amps)
        assert state.n == 2
        assert np.allclose(state.matrix, np.diag([math.sqrt(0.5)] * 2))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            FullState(np.diag([1.0, 1.0]))

    def test_rejects_nan_matrix(self):
        with pytest.raises(ValidationError, match="not normalized"):
            FullState(np.full((2, 2), np.nan))

    def test_rejects_one_nan_entry(self):
        matrix = np.diag([math.sqrt(0.5)] * 2)
        matrix[0, 1] = np.nan
        with pytest.raises(ValidationError, match="not normalized"):
            FullState(matrix)

    def test_reduced_spectrum(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        state = FullState.from_layout(v.amps)
        assert np.allclose(state.reduced_spectrum(), v.squares, atol=1e-12)


class TestApplyKraus:
    def test_identity(self):
        v = validate([0.6, 0.4], squared=True)
        state = FullState.from_layout(v.amps)
        post, prob = apply_kraus(state, DiagonalKraus((1.0, 1.0)))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(post.matrix, state.matrix)

    def test_projective_filter_on_maximally_entangled(self):
        n = 4
        v = validate([1 / n] * n, squared=True)
        state = FullState.from_layout(v.amps)
        op = DiagonalKraus((1.0, 0.0, 0.0, 0.0))
        post, prob = apply_kraus(state, op)
        assert prob == pytest.approx(1 / n, abs=1e-12)
        expected = np.zeros((n, n))
        expected[0, 0] = 1.0
        assert np.allclose(post.matrix, expected, atol=1e-12)

    def test_case1_second_operator_fixture(self, case1_pair):
        # Applying the second outcome operator to the (0.5,0.3,0.2) source
        # gives the (0.2,0.7,0.1) state before correction, probability 1/5.
        source, target = case1_pair
        step = solve3(source, target)
        state = FullState.from_layout(source.amps)
        post, prob = apply_kraus(state, step.branches[1].op)
        assert prob == pytest.approx(0.2, abs=1e-12)
        assert np.allclose(
            np.diag(post.matrix) ** 2, [0.2, 0.7, 0.1], atol=1e-12
        )
        corrected = apply_correction(post, step.branches[1].correction)
        assert np.allclose(np.diag(corrected.matrix) ** 2, [0.7, 0.2, 0.1], atol=1e-12)

    def test_party_b_equivalent_for_diagonal_ops(self, case1_pair):
        source, target = case1_pair
        step = solve3(source, target)
        state = FullState.from_layout(source.amps)
        for br in step.branches:
            post_a, prob_a = apply_kraus(state, br.op, "A")
            post_b, prob_b = apply_kraus(state, br.op, "B")
            assert prob_a == pytest.approx(prob_b, abs=1e-14)
            assert np.allclose(post_a.matrix, post_b.matrix.T, atol=1e-14)

    def test_zero_probability_outcome(self):
        v = validate([1.0, 0.0], squared=True)
        state = FullState.from_layout(v.amps)
        post, prob = apply_kraus(state, DiagonalKraus((0.0, 1.0)))
        assert prob == 0.0
        assert np.allclose(post.matrix, 0.0)

    def test_dimension_mismatch(self):
        state = FullState.from_layout(validate([0.5, 0.5], squared=True).amps)
        with pytest.raises(DimensionMismatch):
            apply_kraus(state, DiagonalKraus((1.0, 1.0, 1.0)))

    @pytest.mark.parametrize(
        "perm", [[-1, 0], [0, 1, 2], [0, 5], (1.0, 0.0), [0, 0], [True, False]]
    )
    def test_correction_must_permute_the_basis_labels(self, perm):
        # -1 used to be read as n - 1; the others raised IndexError or were
        # reported as a state that is not normalized.
        state = FullState.from_layout(validate([0.7, 0.3], squared=True).amps)
        message = rf"^correction {re.escape(str(tuple(perm)))} is not a permutation of 0\.\.1$"
        with pytest.raises(ValidationError, match=message):
            apply_correction(state, perm)


class TestVerifyPlan:
    def test_running_example_passes(self, n4_pair):
        report = verify_plan(plan_full(*n4_pair))
        assert report.passed
        assert report.max_deviation < 1e-10
        assert report.path_check.enumerated
        assert report.path_check.path_count == 6

    def test_trivial_plan_zero_deviation(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        report = verify_plan(plan_full(v, v))
        assert report.passed
        assert report.max_deviation == 0.0

    def test_detects_coarse_perturbation(self, n4_pair):
        plan = plan_full(*n4_pair)
        entry = plan.steps[0].branches[0].op.diag[1]
        bad = perturb_plan(plan, 0, 0, 1, 1e-3)
        report = verify_plan(bad)
        assert not report.passed
        dev = report.step_checks[0].completeness_dev
        assert dev == pytest.approx(2e-3 * entry, rel=0.1)

    def test_detects_fine_perturbation_everywhere(self, n4_pair):
        plan = plan_full(*n4_pair)
        for s, step in enumerate(plan.steps):
            for b in range(len(step.branches)):
                for e in range(4):
                    bad = perturb_plan(plan, s, b, e, 1e-6)
                    assert not verify_plan(bad).passed, (s, b, e)

    def test_negative_perturbation_detected(self, n4_pair):
        plan = plan_full(*n4_pair)
        bad = perturb_plan(plan, 1, 0, 0, -1e-6)
        assert not verify_plan(bad).passed

    @pytest.mark.parametrize("limit", [None, "x", True])
    def test_path_limit_must_be_an_integer(self, n4_pair, limit):
        plan = plan_full(*n4_pair)
        message = rf"^path_limit must be an integer, got {re.escape(repr(limit))}$"
        with pytest.raises(ValidationError, match=message):
            verify_plan(plan, path_limit=limit)
        assert verify_plan(plan, path_limit=np.int64(6)).path_check.enumerated


class TestTrajectories:
    def test_replay_is_identical(self, n4_pair):
        plan = plan_full(*n4_pair)
        first = run_trajectory(plan, seed=99, shot_index=17)
        second = run_trajectory(plan, seed=99, shot_index=17)
        assert first == second

    def test_single_shot_reaches_target(self, n4_pair):
        plan = plan_full(*n4_pair)
        report = sample_trajectories(plan, 1, seed=5)
        assert report.match_rate == 1.0

    def test_identity_plan_single_branch(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        plan = plan_full(v, v)
        report = sample_trajectories(plan, 50, seed=1)
        assert report.branch_frequencies == ((1.0,),)
        assert report.path_counts == {(0,): 50}

    def test_same_seed_same_report(self, n4_pair):
        plan = plan_full(*n4_pair)
        a = sample_trajectories(plan, 400, seed=123)
        b = sample_trajectories(plan, 400, seed=123)
        assert a.path_counts == b.path_counts
        assert a.branch_frequencies == b.branch_frequencies
        assert a.max_final_dev == b.max_final_dev

    def test_different_seeds_differ(self, n4_pair):
        plan = plan_full(*n4_pair)
        a = sample_trajectories(plan, 400, seed=123)
        b = sample_trajectories(plan, 400, seed=124)
        assert a.path_counts != b.path_counts

    def test_frequencies_near_analytic(self, n4_pair):
        plan = plan_full(*n4_pair)
        shots = 4000
        report = sample_trajectories(plan, shots, seed=2026)
        assert report.match_rate == 1.0
        expected = [[br.prob for br in step.branches] for step in plan.steps]
        for freqs, probs in zip(report.branch_frequencies, expected):
            for f, p in zip(freqs, probs):
                sigma = math.sqrt(p * (1 - p) / shots)
                assert abs(f - p) < 4 * sigma

    def test_shots_validation(self, n4_pair):
        plan = plan_full(*n4_pair)
        with pytest.raises(ValidationError):
            sample_trajectories(plan, 0, seed=1)

    @pytest.mark.parametrize("shots", [True, False, 2.0, 2.5, "2", None])
    def test_shots_must_be_an_integer(self, n4_pair, shots):
        plan = plan_full(*n4_pair)
        with pytest.raises(ValidationError, match="shots must be an integer"):
            sample_trajectories(plan, shots, seed=1)

    def test_numpy_integer_shots(self, n4_pair):
        plan = plan_full(*n4_pair)
        report = sample_trajectories(plan, np.int64(40), seed=1)
        assert report.path_counts == sample_trajectories(plan, 40, seed=1).path_counts
        # Kept as a Python int, so the report's numbers serialise.
        assert type(report.shots) is int
        assert {type(f) for fs in report.branch_frequencies for f in fs} == {float}

    @pytest.mark.parametrize("shot_index", [-1, -(2**64), 2**64, 2**70, 1.5, 1.0, True])
    def test_shot_index_out_of_range(self, n4_pair, shot_index, monkeypatch):
        # Refused before any draw: Philox keys a shot by a uint64 index.  A
        # float index once drew a stream that no shot of a report has.
        def no_draws(*args):
            raise AssertionError("drew for an out-of-range shot")

        monkeypatch.setattr(oracle, "_shot_draws", no_draws)
        plan = plan_full(*n4_pair)
        with pytest.raises(ValidationError, match=r"\[0, 2\*\*64\)"):
            run_trajectory(plan, seed=3, shot_index=shot_index)

    @pytest.mark.parametrize(
        "seed",
        [2.5, 3.0, True, False, "3", None, np.float64(3)],
        ids=["2.5", "3.0", "True", "False", "str", "None", "np.float64"],
    )
    def test_seed_must_be_an_integer(self, n4_pair, seed, monkeypatch):
        # Refused before any draw: the report and record name the seed as
        # given, so 2.5 would name seed 2's streams and True seed 1's.
        def no_draws(*args):
            raise AssertionError("drew for a seed that is not an integer")

        monkeypatch.setattr(oracle, "_shot_draws", no_draws)
        plan = plan_full(*n4_pair)
        message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValidationError, match=message):
            sample_trajectories(plan, 10, seed=seed)
        with pytest.raises(ValidationError, match=message):
            run_trajectory(plan, seed=seed, shot_index=0)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1), np.int8(-1)])
    def test_numpy_integer_seed_is_the_python_int(self, n4_pair, seed):
        # Kept as a Python int: a numpy integer overflows in the seed's
        # reduction mod 2**64.
        plan = plan_full(*n4_pair)
        report = sample_trajectories(plan, 40, seed=seed)
        assert report == sample_trajectories(plan, 40, seed=int(seed))
        assert type(report.seed) is int
        record = run_trajectory(plan, seed=seed, shot_index=np.uint64(5))
        assert record == run_trajectory(plan, seed=int(seed), shot_index=5)
        assert type(record.seed) is int and type(record.shot_index) is int

    @pytest.mark.parametrize("shot_index", [0, 2**64 - 1])
    def test_shot_index_range_ends(self, n4_pair, shot_index):
        plan = plan_full(*n4_pair)
        expected = walk_one_shot(_sampling_runtime(plan), 3, shot_index)
        assert run_trajectory(plan, seed=3, shot_index=shot_index) == expected


N10_PAIR = (
    [0.19, 0.17, 0.15, 0.13, 0.11, 0.09, 0.07, 0.05, 0.03, 0.01],
    [0.25, 0.19, 0.15, 0.12, 0.1, 0.07, 0.05, 0.04, 0.02, 0.01],
)


# A 16-step ladder pair whose 150 shots share some path prefixes.
N32_PAIR = dense_pair(32)
SEEDS = [0, 7, 2**63 + 5, 2**64 + 3, -1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("depth", [1, 2, 5, 8, 16])
def test_batched_draws_equal_per_shot_streams(seed, depth):
    """One Philox pass over a block of shots gives each shot's numpy stream;
    depths past 4 cross Philox's four-word blocks."""
    batched = _shot_draws(seed, 3, 40, depth)
    per_shot = np.stack([shot_rng(seed, s).random(depth) for s in range(3, 43)])
    assert batched.dtype == np.float64
    assert np.array_equal(batched.view(np.uint64), per_shot.view(np.uint64))


def _per_shot_runs(plan, seed, shots):
    """The reference walk of each shot, with the aggregates a report holds."""
    runtime = _sampling_runtime(plan)
    runs = [walk_one_shot(runtime, seed, i) for i in range(shots)]
    path_counts = {}
    branch_counts = [[0] * len(step.branches) for step in plan.steps]
    for run in runs:
        key = tuple(branch for _, branch in run.path)
        path_counts[key] = path_counts.get(key, 0) + 1
        for k, branch in run.path:
            branch_counts[k][branch] += 1
    devs = [r.final_dev for r in runs]
    return runs, path_counts, branch_counts, devs


class TestSamplerMatchesPerShotReference:
    """sample_trajectories aggregates exactly what the reference walk
    (helpers.walk_one_shot) yields shot by shot."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "pair",
        [([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05]), N10_PAIR, N32_PAIR],
    )
    def test_aggregates_equal_per_shot_runs(self, pair, seed, monkeypatch):
        # 150 shots in blocks of 64 cross two block boundaries.
        monkeypatch.setattr(oracle, "SHOT_BLOCK", 64)
        plan = plan_full(*(validate(x, squared=True) for x in pair))
        shots = 150
        report = sample_trajectories(plan, shots, seed)
        runs, path_counts, branch_counts, devs = _per_shot_runs(plan, seed, shots)

        assert len(plan.steps) == len(pair[0]) // 2
        assert report.path_counts == path_counts
        assert report.branch_frequencies == tuple(
            tuple(c / shots for c in counts) for counts in branch_counts
        )
        assert report.max_final_dev == max(devs)
        assert report.match_rate == sum(r.matched_target for r in runs) / shots

    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_broken_operator_shows_in_every_shot_it_touches(self, n4_pair, seed):
        # Shots that share a prefix share its arithmetic; a defective
        # operator must still miss the target on exactly the per-shot runs.
        bad = perturb_plan(plan_full(*n4_pair), 1, 0, 0, 1e-6)
        shots = 300
        report = sample_trajectories(bad, shots, seed)
        runs, path_counts, _, devs = _per_shot_runs(bad, seed, shots)

        assert 0 < report.match_rate < 1
        assert report.match_rate == sum(r.matched_target for r in runs) / shots
        assert report.max_final_dev == max(devs)
        assert report.path_counts == path_counts


N4_PAIR = ([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05])


def _assert_report_is_per_shot(report, plan, seed, shots):
    """report aggregates the reference walk shot by shot, paths in order of
    their first shot."""
    runs, path_counts, branch_counts, devs = _per_shot_runs(plan, seed, shots)
    assert list(report.path_counts.items()) == list(path_counts.items())
    assert report.branch_frequencies == tuple(
        tuple(c / shots for c in counts) for counts in branch_counts
    )
    assert report.max_final_dev == max(devs)
    assert report.match_rate == sum(r.matched_target for r in runs) / shots


class TestRunTrajectoryMatchesPerShotReference:
    """run_trajectory walks one shot through the batched kernel; its path,
    final deviation and verdict are the reference walk's, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _plan(N4_PAIR),
            lambda: _plan(N10_PAIR),
            lambda: _plan(N32_PAIR),
            lambda: perturb_plan(_plan(N4_PAIR), 1, 0, 0, 1e-6),
        ],
        ids=["n4", "n10", "n32", "n4-perturbed"],
    )
    def test_single_shots_equal_the_reference(self, make, seed):
        plan = make()
        runtime = _sampling_runtime(plan)
        for shot in (0, 1, 2, 5, 17, 40, 149, 2**40 + 1):
            got = run_trajectory(plan, seed, shot)
            assert got == walk_one_shot(runtime, seed, shot)
            assert type(got.final_dev) is float


class TestSamplerChunks:
    """The sampler walks path prefixes in chunks of SAMPLE_BATCH_ENTRIES
    matrix entries; neither where chunks split nor how many there are may
    change a report."""

    @pytest.mark.parametrize("prefixes", [1, 2, 5])
    @pytest.mark.parametrize(
        "pair", [N4_PAIR, N10_PAIR, N32_PAIR], ids=["n4", "n10", "n32"]
    )
    def test_chunk_sizes_keep_the_per_shot_report(self, pair, prefixes, monkeypatch):
        n = len(pair[0])
        monkeypatch.setattr(oracle, "SHOT_BLOCK", 64)
        monkeypatch.setattr(oracle, "SAMPLE_BATCH_ENTRIES", prefixes * n * n)
        plan = _plan(pair)
        for seed in (0, 2**64 + 3):
            report = sample_trajectories(plan, 150, seed)
            _assert_report_is_per_shot(report, plan, seed, 150)

    def test_broken_operator_in_one_prefix_chunks(self, n4_pair, monkeypatch):
        monkeypatch.setattr(oracle, "SAMPLE_BATCH_ENTRIES", 16)
        bad = perturb_plan(plan_full(*n4_pair), 1, 0, 0, 1e-6)
        report = sample_trajectories(bad, 300, 7)
        assert 0 < report.match_rate < 1
        _assert_report_is_per_shot(report, bad, 7, 300)

    def test_incomplete_measurement_in_one_chunk(self, n4_pair):
        # Step 0's first outcome now leaves its own state, and step 1's
        # operators no longer sum to the identity, so each prefix has its
        # own probability total, which scales that prefix's draws; prefixes
        # sharing a chunk must not trade totals.
        bad = perturb_plan(plan_full(*n4_pair), 0, 0, 0, 0.3)
        bad = perturb_plan(bad, 1, 0, 0, 0.3)
        report = sample_trajectories(bad, 300, 7)
        assert report.match_rate < 1
        _assert_report_is_per_shot(report, bad, 7, 300)

    def test_memory_stays_within_half_a_budget_per_step(self):
        # A few chunks wait at each step, so the walk adds well under half
        # of a 16384-entry budget of float64s per step (1 MiB here) to the
        # peak of computing a block's draws; it adds about 0.3 MB.  Holding
        # whole levels adds about 20 MB on this plan, and keeping a block's
        # draws alive while the next block's are made adds 1 MB.  The bound
        # is absolute, so that a larger SAMPLE_BATCH_ENTRIES cannot loosen it.
        plan = _plan(N32_PAIR)
        depth = len(plan.steps)
        assert depth == 16
        sample_trajectories(plan, 10, 5)  # first-use allocations
        tracemalloc.start()
        try:
            _shot_draws(5, 0, oracle.SHOT_BLOCK, depth)
            draws_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sample_trajectories(plan, 20000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= draws_peak + 2**20

    def test_walk_memory_with_small_shot_blocks(self, monkeypatch):
        # Blocks of 256 shots make draws of 33 KB, so the peak is the walk's
        # own: its pending chunks, one chunk step's scratch array and the
        # children it makes.  It is about 2.2 MB at the default budget (1.2
        # MB at a quarter of it); holding whole levels would take far more.
        monkeypatch.setattr(oracle, "SHOT_BLOCK", 256)
        plan = _plan(N32_PAIR)
        sample_trajectories(plan, 10, 5)  # first-use allocations
        tracemalloc.start()
        try:
            sample_trajectories(plan, 20000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize(
        "make, shots",
        [
            (lambda: _plan(N32_PAIR), 300),
            # 600 shots of this plan take 211 distinct paths, one chunk.
            (lambda: _ladder_plan(16, np.random.default_rng([20261018, 16])), 1200),
        ],
        ids=["n32", "n16"],
    )
    def test_default_budget_splits_chunks(self, make, shots):
        # More distinct complete paths than a chunk holds, so the last
        # levels split into several chunks at the default budget.
        plan = make()
        n = len(plan.chain.layouts[0])
        report = sample_trajectories(plan, shots, 11)
        assert len(report.path_counts) > oracle.SAMPLE_BATCH_ENTRIES // (n * n)
        _assert_report_is_per_shot(report, plan, 11, shots)

    def test_chunk_steps_are_few(self, monkeypatch):
        # Machine-independent guard on the chunk size: one _relabel per
        # (chunk, branch taken).  It makes 47 calls at 64 prefixes a chunk
        # and 133 at 16.
        calls = []
        relabel = oracle._relabel

        def counted(*args):
            calls.append(1)
            return relabel(*args)

        monkeypatch.setattr(oracle, "_relabel", counted)
        sample_trajectories(_plan(N32_PAIR), 190, 5)
        assert len(calls) <= 60


@pytest.fixture
def runtime_builds(monkeypatch):
    """The plans oracle._PlanRuntime is built for while it is patched with a
    counting subclass."""
    built = []

    class Counted(oracle._PlanRuntime):
        def __init__(self, plan):
            built.append(plan)
            super().__init__(plan)

    monkeypatch.setattr(oracle, "_PlanRuntime", Counted)
    return built


@pytest.fixture
def sample_block_calls(monkeypatch):
    """Shot counts of the blocks oracle._sample_block walks while it is
    patched with a counting wrapper."""
    calls = []
    sample_block = oracle._sample_block

    def counting(runtime, draws):
        calls.append(len(draws))
        return sample_block(runtime, draws)

    monkeypatch.setattr(oracle, "_sample_block", counting)
    return calls


def _descent_equals_matrix_walk(plan, shots, seed, calls):
    """The report that descends verify_plan's path table is the matrix
    walk's and the per-shot reference's, field for field and with paths in
    the same order, and so is each block's answer."""
    verified = verify_plan(plan)
    assert verified.path_check.enumerated
    descended = sample_trajectories(plan, shots, seed, verified=verified)
    assert calls == []
    walked = sample_trajectories(plan, shots, seed)
    assert calls
    assert repr(descended) == repr(walked)
    assert list(descended.path_counts.items()) == list(walked.path_counts.items())
    _assert_report_is_per_shot(descended, plan, seed, shots)
    draws = _shot_draws(seed, 0, shots, len(plan.steps))
    table_block = oracle._descend(verified._paths, draws)
    matrix_block = oracle._sample_block(_sampling_runtime(plan), draws)
    for a, b in zip(table_block, matrix_block):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTableDescentMatchesMatrixWalk:
    """sample_trajectories(..., verified=report) descends the path table of
    a report that walked every path of this very plan, and never touches a
    matrix; otherwise it walks the plan's matrices (_sample_block).  The
    two give the same report."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_ladder_plans(self, n, sample_block_calls):
        plan = _ladder_plan(n, np.random.default_rng([20261018, n]))
        _descent_equals_matrix_walk(plan, 150, 11, sample_block_calls)

    @pytest.mark.parametrize("pair", DEGENERATE_PAIRS)
    def test_degenerate_pairs(self, pair, sample_block_calls):
        try:
            plan = _plan(pair)
            verify_plan(plan)
        except LoccLadderError:
            return  # no plan, or no walk to keep a table
        _descent_equals_matrix_walk(plan, 150, 5, sample_block_calls)

    @pytest.mark.parametrize("n", [24, 32, 40, 48])
    def test_sparse_pairs(self, n, sample_block_calls):
        plan = _plan(_sparse_pair(n, np.random.default_rng([20261018, n])))
        _descent_equals_matrix_walk(plan, 150, 3, sample_block_calls)

    def test_zero_step_plan(self, sample_block_calls):
        v = validate([0.5, 0.3, 0.2], squared=True)
        plan = dataclasses.replace(plan_full(v, v), steps=())
        _descent_equals_matrix_walk(plan, 20, 3, sample_block_calls)

    @pytest.mark.parametrize("shots", [1, 64, 65, 150])
    @pytest.mark.parametrize("pair", [N4_PAIR, N10_PAIR], ids=["n4", "n10"])
    def test_small_shot_blocks(self, pair, shots, monkeypatch, sample_block_calls):
        monkeypatch.setattr(oracle, "SHOT_BLOCK", 64)
        _descent_equals_matrix_walk(_plan(pair), shots, 2**64 + 3, sample_block_calls)

    @pytest.mark.parametrize("shots", [1, oracle.SHOT_BLOCK + 1])
    def test_default_shot_block(self, shots, sample_block_calls):
        plan = _ladder_plan(12, np.random.default_rng([20261018, 12]))
        verified = verify_plan(plan)
        descended = sample_trajectories(plan, shots, 7, verified=verified)
        assert sample_block_calls == []
        walked = sample_trajectories(plan, shots, 7)
        assert repr(descended) == repr(walked)
        assert list(descended.path_counts) == list(walked.path_counts)

    @pytest.mark.parametrize(
        "report_of",
        [
            lambda plan: verify_plan(_plan(N10_PAIR)),
            lambda plan: verify_plan(plan, path_limit=0),
            lambda plan: dataclasses.replace(verify_plan(plan)),
        ],
        ids=["equal-plan", "not-walked", "rebuilt-report"],
    )
    def test_other_reports_walk_the_matrices(self, report_of, sample_block_calls):
        # Only a report of this very plan whose walk went down every path
        # holds its table; an equal plan's report does not count.
        plan = _plan(N10_PAIR)
        verified = report_of(plan)
        walked = sample_trajectories(plan, 300, 5)
        assert len(sample_block_calls) == 1
        fallback = sample_trajectories(plan, 300, 5, verified=verified)
        assert len(sample_block_calls) == 2
        assert repr(fallback) == repr(walked)

    @pytest.mark.parametrize("verified", ["report", 0, object()])
    def test_verified_must_be_a_report(self, n4_pair, verified):
        with pytest.raises(ValidationError, match=r"^verified must be a VerificationReport"):
            sample_trajectories(plan_full(*n4_pair), 10, 1, verified=verified)


def _simulate(pair, shots):
    """cli.main's simulate answer for a pair of squared coefficients."""
    source, target = pair
    stdin = io.StringIO(json.dumps({"source": list(source), "target": list(target)}))
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["simulate", "--squared", "--shots", str(shots), "--seed", "9", "--format", "machine"]
    code = cli.main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    assert (code, stderr.getvalue()) == (0, "")
    return stdout.getvalue()


class TestSimulateDescendsTheVerifiedWalk:
    """The simulate command samples from the report verify_plan gave it:
    plans whose paths were walked never reach _sample_block, and plans with
    too many paths to walk do."""

    def test_walked_plan_never_walks_matrices(self, monkeypatch):
        descended = _simulate(N4_PAIR, 500)

        def refuse(runtime, draws):
            raise AssertionError("_sample_block called")

        monkeypatch.setattr(oracle, "_sample_block", refuse)
        assert _simulate(N4_PAIR, 500) == descended
        monkeypatch.undo()
        # The same bytes from the matrix walk, with the report's table gone.
        verify = cli.verify_plan
        monkeypatch.setattr(cli, "verify_plan", lambda plan: dataclasses.replace(verify(plan)))
        assert _simulate(N4_PAIR, 500) == descended

    def test_unwalked_plan_walks_matrices(self, sample_block_calls):
        answer = json.loads(_simulate(N32_PAIR, 40))
        assert answer["verification"]["path"]["enumerated"] is False
        assert sample_block_calls == [40]

    def test_unwalked_plan_reads_the_plan_once(self, runtime_builds, monkeypatch):
        # The sampler walks the matrices on verify_plan's own _PlanRuntime.
        answer = _simulate(N32_PAIR, 40)
        assert len(runtime_builds) == 1
        verify = cli.verify_plan
        monkeypatch.setattr(cli, "verify_plan", lambda plan: dataclasses.replace(verify(plan)))
        assert _simulate(N32_PAIR, 40) == answer
        assert len(runtime_builds) == 3


def _plan(pair):
    return plan_full(*(validate(x, squared=True) for x in pair))


def _ladder_plan(n, rng):
    """A random plan at dimension n: a Dirichlet target and a source made
    from it by pairwise averaging, redrawn until the ladder exists."""
    while True:
        target = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        source = target.copy()
        for _ in range(2 * n):
            i, j = rng.choice(n, size=2, replace=False)
            t = rng.random()
            source[i], source[j] = (
                t * source[i] + (1 - t) * source[j],
                (1 - t) * source[i] + t * source[j],
            )
        try:
            return _plan((sorted(source, reverse=True), list(target)))
        except LadderInfeasible:
            continue


def _sparse_pair(n, rng):
    """Large n, two adjacent averaging moves near the tail: nearly every
    ladder step is trivial, so the path count stays small."""
    target = np.sort(rng.dirichlet(np.ones(n)))[::-1] + 1e-9
    target /= target.sum()
    source = target.copy()
    for _ in range(2):
        i = int(rng.integers(n - 8, n - 1))
        source[i], source[i + 1] = (
            0.7 * source[i] + 0.3 * source[i + 1],
            0.3 * source[i] + 0.7 * source[i + 1],
        )
    return sorted(source, reverse=True), list(target)


def _path_outcome(check, plan, **kwargs):
    """check(plan)'s path check, or the error it raised."""
    try:
        return check(plan, **kwargs)
    except ValidationError as exc:
        return type(exc), str(exc)


def _batched(plan, **kwargs):
    return verify_plan(plan, **kwargs).path_check


class TestPathWalkMatchesLiteralWalk:
    """verify_plan walks paths in batches by row scaling and permutation;
    its path check must equal the literal apply_kraus/apply_correction
    walk's, field for field and bit for bit."""

    @pytest.mark.parametrize("n", range(3, 17))
    def test_ladder_plans(self, n):
        # From n = 12 a matrix has more than 128 entries, so the pairwise
        # sum behind each probability splits into blocks.
        plan = _ladder_plan(n, np.random.default_rng([20261018, n]))
        assert verify_plan(plan).path_check == literal_path_check(plan)

    @pytest.mark.parametrize("pair", DEGENERATE_PAIRS)
    def test_degenerate_pairs(self, pair):
        plan = _plan(pair)
        assert _path_outcome(_batched, plan) == _path_outcome(literal_path_check, plan)

    @pytest.mark.parametrize("n", [24, 32, 40, 48])
    def test_sparse_pairs(self, n):
        plan = _plan(_sparse_pair(n, np.random.default_rng([20261018, n])))
        check = verify_plan(plan).path_check
        assert check.enumerated
        assert check == literal_path_check(plan)

    def test_one_step_plan(self, case1_pair):
        # The start's children are the leaves: no batch ever waits.
        plan = plan_full(*case1_pair)
        assert [len(step.branches) for step in plan.steps] == [3]
        assert verify_plan(plan).path_check == literal_path_check(plan)

    def test_zero_step_plan(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        plan = dataclasses.replace(plan_full(v, v), steps=())
        check = verify_plan(plan).path_check
        assert check.path_count == 1
        assert check == literal_path_check(plan)

    def test_step_without_branches(self, n4_pair):
        plan = plan_full(*n4_pair)
        empty = dataclasses.replace(plan.steps[1], branches=())
        plan = dataclasses.replace(plan, steps=(plan.steps[0], empty))
        check = verify_plan(plan).path_check
        assert check.path_count == 0
        assert check == literal_path_check(plan)

    def test_zero_probability_path(self, n4_pair):
        # Step 0's first outcome keeps only index 0, which step 1's first
        # outcome removes: no step check sees that path's zero probability.
        plan = plan_full(*n4_pair)
        for e in (1, 2, 3):
            plan = perturb_plan(plan, 0, 0, e, -plan.steps[0].branches[0].op.diag[e])
        plan = perturb_plan(plan, 1, 0, 0, -plan.steps[1].branches[0].op.diag[0])
        expected = _path_outcome(literal_path_check, plan)
        assert expected == (ValidationError, "amplitude matrix is not normalized")
        assert _path_outcome(_batched, plan) == expected

    @pytest.mark.parametrize("below", [0, 1])
    def test_path_limit_edge(self, below):
        plan = _ladder_plan(9, np.random.default_rng(3))
        limit = literal_path_check(plan).path_count - below
        check = verify_plan(plan, path_limit=limit).path_check
        assert check.enumerated == (below == 0)
        assert check == literal_path_check(plan, path_limit=limit)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    @pytest.mark.parametrize("n", [4, 9, 13, 16])
    def test_chunk_boundaries(self, n, batch, monkeypatch):
        # batch path prefixes to an array, so chunks split every expansion.
        monkeypatch.setattr(oracle, "PATH_BATCH_ENTRIES", batch * n * n)
        plan = _ladder_plan(n, np.random.default_rng([20261018, n]))
        assert verify_plan(plan).path_check == literal_path_check(plan)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _plan(([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05])),
            lambda: _ladder_plan(7, np.random.default_rng(7)),
        ],
        ids=["n4", "n7"],
    )
    def test_every_injected_fault_matches(self, make):
        # Criterion 7's faults: one operator entry shifted by +/-1e-6.
        plan = make()
        faults = 0
        for s, step in enumerate(plan.steps):
            for b, branch in enumerate(step.branches):
                for e, entry in enumerate(branch.op.diag):
                    for delta in (1e-6, -1e-6):
                        if entry + delta < 0:
                            continue
                        bad = perturb_plan(plan, s, b, e, delta)
                        check = verify_plan(bad).path_check
                        assert check.enumerated
                        assert check == literal_path_check(bad), (s, b, e, delta)
                        faults += 1
        assert faults >= 40

    def test_memory_stays_within_two_budgets_per_step(self):
        # At most two chunks wait at each step, and an expansion holds its
        # batch's children and their row-scaled originals, so the walk's
        # peak stays under two budgets of float64s per step: about 0.95 MB
        # on this plan (depth 8, 4374 paths; the ladder's last step at even
        # n has two outcomes).  The budget itself is pinned: the bound must
        # stay within 1 MiB, under the per-document peak that serialising
        # an n = 48 transcript takes anyway.  At 16384 entries the walk
        # alone would peak at about 1.7 MB here.
        plan = _plan(dense_pair(16))
        depth = len(plan.steps)
        # Also the first-use allocations.
        assert (depth, verify_plan(plan).path_check.path_count) == (8, 4374)
        tracemalloc.start()
        try:
            verify_plan(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * oracle.PATH_BATCH_ENTRIES * 8 * depth
        assert bound <= 2**20
        assert peak <= bound


class TestKernelMatchesLiteralProducts:
    """_scale then _relabel must give apply_kraus then apply_correction bit
    for bit, alone (as the sampler calls them) and on blocks of branches (as
    the path walk does).  Non-diagonal matrices show what the walks' states,
    always diagonal, cannot: a permutation applied the wrong way round."""

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 16])
    def test_non_diagonal_batch(self, n):
        rng = np.random.default_rng([20261018, n])
        states = rng.standard_normal((5, n, n))
        states /= np.sqrt(np.sum(states * states, axis=(1, 2)))[:, None, None]
        diags = rng.random((3, n))
        perms = [rng.permutation(n) for _ in range(3)]
        invs = np.argsort(perms, axis=1)
        out, prob = oracle._scale(states[:, None], diags[:, :, None])
        block = np.empty((15, n, n))
        gather = oracle._gather_indices(invs) + n * n * np.arange(3)[:, None]
        oracle._relabel(out, prob, gather.ravel(), block)
        for b, (d, perm) in enumerate(zip(diags, perms)):
            out_b, prob_b = oracle._scale(states, d[:, None])
            alone = np.empty((5, n, n))
            oracle._relabel(out_b, prob_b, oracle._gather_indices(invs)[b], alone)
            for g, state in enumerate(states):
                post, p = apply_kraus(FullState(state.copy()), DiagonalKraus(tuple(d)))
                corrected = apply_correction(post, tuple(perm)).matrix
                assert prob_b[g] == p == prob[g, b]
                assert np.array_equal(alone[g], corrected)
                assert np.array_equal(block[3 * g + b], corrected)

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 16])
    def test_leaf_deviation_against_the_target_relabelled_back(self, n):
        # The walk's last step compares each unrelabelled matrix with P^T T
        # P; relabelling it and comparing with T gives the same bits.
        rng = np.random.default_rng([20261019, n])
        states = rng.standard_normal((5, n, n))
        states /= np.sqrt(np.sum(states * states, axis=(1, 2)))[:, None, None]
        target = rng.standard_normal((n, n))
        diags = rng.random((3, n))
        perms = [rng.permutation(n) for _ in range(3)]
        invs = np.argsort(perms, axis=1)
        out, prob = oracle._scale(states[:, None], diags[:, :, None])
        block = np.empty((15, n, n))
        gather = oracle._gather_indices(invs) + n * n * np.arange(3)[:, None]
        oracle._relabel(out, prob, gather.ravel(), block)
        relabelled = np.abs(block - target).max(axis=(1, 2))
        back = oracle._target_back(target, invs)
        devs = oracle._leaf_devs(out, prob, back)
        assert devs.tobytes() == relabelled.tobytes()
        for g, state in enumerate(states):
            for b, (d, perm) in enumerate(zip(diags, perms)):
                post, _ = apply_kraus(FullState(state.copy()), DiagonalKraus(tuple(d)))
                corrected = apply_correction(post, tuple(perm)).matrix
                assert devs[3 * g + b] == float(np.max(np.abs(corrected - target)))


def _stacked_step_checks(plan):
    # path_limit=0: the step checks alone, which a zero-probability path
    # would otherwise cut short.
    return verify_plan(plan, path_limit=0).step_checks


def _step_outcome(check, plan):
    """repr of check(plan)'s step checks, or the error it raised."""
    try:
        return repr(check(plan))
    except ValidationError as exc:
        return type(exc), str(exc)


@st.composite
def degenerate_pairs(draw):
    """(source, target) squared coefficients with ties, zero tails and
    1e-13 coefficients.  The source is the target averaged over pairs of
    indices, so the target majorizes it."""
    n = draw(st.integers(2, 8))
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=n, max_size=n))
    target = sorted(weights, reverse=True)
    zeros = draw(st.integers(0, n - 2))
    target[n - zeros :] = [0.0] * zeros
    target = [t / sum(target) for t in target]
    last = n - zeros - 1
    if last > 0 and draw(st.booleans()):
        target[last - 1] += target[last] - 1e-13
        target[last] = 1e-13
    source = list(target)
    moves = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([0.5, 0.75])
    )
    for i, j, t in draw(st.lists(moves, max_size=2 * n)):
        source[i], source[j] = (
            t * source[i] + (1 - t) * source[j],
            (1 - t) * source[i] + t * source[j],
        )
    return sorted(source, reverse=True), sorted(target, reverse=True)


class TestStepChecksMatchLiteral:
    """verify_plan's step checks, stacked per step, must equal the literal
    per-branch loop's (apply_kraus, apply_correction, reduced_spectrum),
    field for field and bit for bit."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_ladder_plans(self, n):
        plan = _ladder_plan(n, np.random.default_rng([20261018, n]))
        assert repr(_stacked_step_checks(plan)) == repr(literal_step_checks(plan))

    @pytest.mark.parametrize("pair", DEGENERATE_PAIRS)
    def test_degenerate_pairs(self, pair):
        plan = _plan(pair)
        expected = _step_outcome(literal_step_checks, plan)
        assert _step_outcome(_stacked_step_checks, plan) == expected

    @pytest.mark.parametrize("n", [24, 32, 40, 48])
    def test_sparse_pairs(self, n):
        plan = _plan(_sparse_pair(n, np.random.default_rng([20261018, n])))
        assert repr(_stacked_step_checks(plan)) == repr(literal_step_checks(plan))

    # numpy's LAPACK tridiagonalises blockwise above n = 32.
    @pytest.mark.parametrize(
        "pair",
        [dense_pair(32), dense_pair(40), dense_pair(48), dirichlet_swept_pair(163)],
        ids=["n32", "n40", "n48", "n64"],
    )
    def test_dense_pairs(self, pair):
        plan = _plan(pair)
        assert len(plan.steps) == len(pair[0]) // 2
        assert repr(_stacked_step_checks(plan)) == repr(literal_step_checks(plan))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _plan(([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05])),
            lambda: _ladder_plan(7, np.random.default_rng(7)),
        ],
        ids=["n4", "n7"],
    )
    def test_every_injected_fault_matches(self, make):
        # Criterion 7's faults: one operator entry shifted by +/-1e-6.
        plan = make()
        faults = 0
        for s, step in enumerate(plan.steps):
            for b, branch in enumerate(step.branches):
                for e, entry in enumerate(branch.op.diag):
                    for delta in (1e-6, -1e-6):
                        if entry + delta < 0:
                            continue
                        bad = perturb_plan(plan, s, b, e, delta)
                        expected = _step_outcome(literal_step_checks, bad)
                        assert _step_outcome(_stacked_step_checks, bad) == expected
                        faults += 1
        assert faults >= 40

    @given(pair=degenerate_pairs())
    @settings(max_examples=150, deadline=None)
    def test_degenerate_property(self, pair):
        try:
            plan = _plan(pair)
        except LoccLadderError:
            return  # refused pairs have no steps to check
        expected = _step_outcome(literal_step_checks, plan)
        assert _step_outcome(_stacked_step_checks, plan) == expected


def _diagonal_stack(diag):
    """The (B, n, n) stack whose matrices have the rows of diag on their
    diagonals and exact zeros elsewhere."""
    b, n = diag.shape
    rho = np.zeros((b, n, n))
    rho[:, np.arange(n), np.arange(n)] = diag
    return rho


@st.composite
def diagonal_stacks(draw):
    """Exactly diagonal (B, n, n) stacks: entries on a 1/8 grid (ties and
    zeros), uniform or within a few ulps below 1, scaled by 1 or by 1e-320
    to 1e-130, with zeros and -0.0 sprinkled in."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "uniform", "near_one"]))
    if kind == "grid":
        diag = rng.integers(0, 9, (b, n)) / 8.0
    elif kind == "uniform":
        diag = rng.random((b, n))
    else:
        diag = 1.0 - rng.integers(0, 16, (b, n)) * 2.0**-53
    diag *= draw(st.one_of(st.just(1.0), st.floats(-320, -130).map(lambda e: 10.0**e)))
    diag[rng.random((b, n)) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    diag[rng.random((b, n)) < draw(st.sampled_from([0.0, 0.1]))] = -0.0
    return _diagonal_stack(diag)


@st.composite
def symmetric_stacks(draw):
    """Random symmetric (B, n, n) stacks with off-diagonal entries: a
    product A A^T, or a diagonal with one symmetric off-diagonal pair."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.standard_normal((b, n, n))
        return np.matmul(a, a.transpose(0, 2, 1))
    rho = _diagonal_stack(rng.random((b, n)))
    i, j = rng.choice(n, size=2, replace=False)
    rho[:, i, j] = rho[:, j, i] = draw(st.sampled_from([1e-300, 1e-12, 0.25]))
    return rho


def _spectra_outcome(spectra, rho):
    """spectra(rho)'s bytes, or the LinAlgError it raised."""
    try:
        return spectra(rho).tobytes()
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Shapes of the stacks passed to np.linalg.eigvalsh while it is
    patched with a counting wrapper."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestSpectra:
    """_spectra reads an exactly diagonal stack's spectrum off its diagonal
    and must give np.linalg.eigvalsh's answer bit for bit; anything else
    goes to eigvalsh."""

    @given(rho=diagonal_stacks())
    @settings(max_examples=300, deadline=None)
    def test_diagonal_stacks_equal_eigvalsh(self, rho):
        assert oracle._spectra(rho).tobytes() == np.linalg.eigvalsh(rho).tobytes()

    @given(rho=symmetric_stacks())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_stacks_equal_eigvalsh(self, rho):
        assert oracle._spectra(rho).tobytes() == np.linalg.eigvalsh(rho).tobytes()

    def test_ladder_plan_never_calls_eigvalsh(self, eigvalsh_calls):
        report = verify_plan(_plan(dense_pair(64)))
        assert report.passed
        assert eigvalsh_calls == []

    @pytest.mark.parametrize(
        "scale, entry, value",
        [
            (1.0, (1, 0), 1e-300),
            (1.0, (1, 1), -0.0),
            (1.0, (1, 1), np.nan),
            (1.0, (1, 1), np.inf),
            (1e-141, (1, 1), 1e-142),
            (1e141, (1, 1), 1e140),
            (0.0, (1, 1), 0.0),
        ],
        ids=[
            "off_diagonal_1e-300",
            "negative_zero",
            "nan",
            "inf",
            "scale_1e-141",
            "scale_1e141",
            "zero_matrix",
        ],
    )
    def test_one_odd_matrix_calls_eigvalsh(self, eigvalsh_calls, scale, entry, value):
        rho = _diagonal_stack(np.array([[0.5, 0.25, 0.25], [0.75, 0.125, 0.125]]))
        rho[1] *= scale
        rho[1][entry] = value
        outcome = _spectra_outcome(oracle._spectra, rho)
        assert eigvalsh_calls == [(2, 3, 3)]
        assert outcome == _spectra_outcome(np.linalg.eigvalsh, rho)


class TestStepWithoutOutcomes:
    """A step without outcomes leaves nothing to draw: both sampling walks
    refuse it, naming the step.  verify_plan reports such a plan instead
    (test_step_without_branches)."""

    @pytest.fixture
    def empty_step_plan(self, n4_pair):
        plan = plan_full(*n4_pair)
        empty = dataclasses.replace(plan.steps[1], branches=())
        return dataclasses.replace(plan, steps=(plan.steps[0], empty))

    @pytest.mark.parametrize(
        "walk",
        [
            lambda plan: run_trajectory(plan, seed=1, shot_index=0),
            lambda plan: sample_trajectories(plan, 100, seed=1),
            lambda plan: sample_trajectories(plan, 100, seed=1, verified=verify_plan(plan)),
        ],
        ids=["run_trajectory", "sample_trajectories", "sample_trajectories-verified"],
    )
    def test_raises(self, empty_step_plan, walk):
        with pytest.raises(ValidationError, match=r"step 1 has no outcomes"):
            walk(empty_step_plan)


class TestPlanIntake:
    """Every entry point reads a plan through one _PlanRuntime, so a
    correction that is no relabelling under apply_correction's rule, or an
    operator of the wrong dimension, is refused the same way, naming the
    step and branch, whether or not the paths are walked."""

    WALKS = [
        lambda plan: verify_plan(plan, path_limit=0),
        verify_plan,
        lambda plan: sample_trajectories(plan, 100, seed=1),
        lambda plan: run_trajectory(plan, seed=1, shot_index=0),
    ]
    WALK_IDS = ["verify_plan-unwalked", "verify_plan", "sample_trajectories", "run_trajectory"]

    @pytest.mark.parametrize("walk", WALKS, ids=WALK_IDS)
    @pytest.mark.parametrize(
        "correction",
        [
            (0, 1, 2, 7),
            (0, 0, 2, 3),
            (0, 1, 2),
            (0.4, 1.4, 2.4, 3.4),
            (0.0, 1.0, 2.0, 3.0),
            (False, True, 2, 3),
        ],
        ids=["out-of-range", "repeated", "short", "fractional", "integral-floats", "bools"],
    )
    def test_malformed_correction(self, n4_pair, correction, walk):
        bad = _replace_branch(plan_full(*n4_pair), 0, 1, correction=correction)
        labels = re.escape(str(correction))
        message = rf"^step 0 branch 1: correction {labels} is not a permutation of 0\.\.3$"
        with pytest.raises(ValidationError, match=message):
            walk(bad)

    @pytest.mark.parametrize("walk", WALKS, ids=WALK_IDS)
    def test_operator_of_the_wrong_dimension(self, n4_pair, walk):
        bad = _replace_branch(plan_full(*n4_pair), 1, 0, op=DiagonalKraus((1.0,) * 5))
        message = r"^step 1 branch 0: operator dim 5 vs state dim 4$"
        with pytest.raises(DimensionMismatch, match=message):
            walk(bad)

    def test_fractional_labels_on_an_unwalked_plan(self):
        source, target = dense_pair(24)
        plan = plan_full(validate(source, squared=True), validate(target, squared=True))
        assert not verify_plan(plan).path_check.enumerated
        correction = tuple(j + 0.4 for j in plan.steps[3].branches[2].correction)
        bad = _replace_branch(plan, 3, 2, correction=correction)
        with pytest.raises(ValidationError, match=r"^step 3 branch 2: correction \(0\.4, 1\.4, "):
            verify_plan(bad)

    @pytest.mark.parametrize("limit", [0, 5, 6, 20000])
    def test_verify_plan_builds_one_runtime(self, n4_pair, limit, runtime_builds):
        plan = plan_full(*n4_pair)
        report = verify_plan(plan, path_limit=limit)
        assert report.path_check.enumerated == (limit >= 6)
        assert runtime_builds == [plan]

    @pytest.mark.parametrize("limit", [0, 20000])
    def test_sampling_reuses_the_reports_runtime(self, n4_pair, limit, runtime_builds):
        # Walked or not, a report lends its runtime to its own plan alone.
        plan, other = plan_full(*n4_pair), plan_full(*n4_pair)
        report = verify_plan(plan, path_limit=limit)
        sample_trajectories(plan, 50, 1, verified=report)
        assert runtime_builds == [plan]
        sample_trajectories(other, 50, 1, verified=report)
        assert runtime_builds == [plan, other]


def _attribute_readers(source, names):
    """{attribute: set of qualified names of the functions that read it}
    for each attribute name in names, over source; numpy's own (np.diag)
    are not reads."""
    readers = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in readers:
                if not (isinstance(child.value, ast.Name) and child.value.id == "np"):
                    readers[child.attr].add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return readers


def test_plan_runtime_is_the_one_reader():
    # Operators and corrections enter the oracle through _PlanRuntime;
    # apply_kraus, the literal reference, reads its own operator.
    readers = _attribute_readers(Path(oracle.__file__).read_text(), ("correction", "diag"))
    assert readers == {
        "correction": {"_PlanRuntime.__init__"},
        "diag": {"_PlanRuntime.__init__", "apply_kraus"},
    }
    sample = (
        "class A:\n    def f(self, b):\n        return b.diag\n\n"
        "def g(b):\n    return np.diag(b.x.correction)\n"
    )
    assert _attribute_readers(sample, ("correction", "diag")) == {
        "correction": {"g"},
        "diag": {"A.f"},
    }
