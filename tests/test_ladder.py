import hashlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_ladder import (
    CASE_I,
    CASE_II,
    TRIVIAL,
    TWO_OUTCOME,
    BlockTooLarge,
    DiagonalKraus,
    DimensionTooSmall,
    InfeasibilityCertificate,
    IndexRangeInvalid,
    IntermediateChain,
    LadderInfeasible,
    LadderPlan,
    NegativeEntry,
    NormalizationUnderflow,
    NotMajorized,
    NotNormalized,
    OmegaNotMajorizing,
    OmegaNotSorted,
    SchmidtVector,
    ZeroBlockNorm,
    choose_omega,
    effective_rank,
    embed_step,
    greatest_first_chain,
    intermediate_chain,
    majorizes,
    solve3,
    validate,
    verify_plan,
)
from locc_ladder import ladder
from locc_ladder import plan_full as _plan_full
from locc_ladder.cli import main as cli_main
from locc_ladder.errors import ChainInvariantViolated
from locc_ladder.ladder import _chain_layouts, _chain_windows, _lift, _window_decompose
from locc_ladder.sampling import random_feasible_pair
from locc_ladder.transcript import certificate_section, chain_section, steps_section

from helpers import (
    DEGENERATE_PAIRS,
    PIN_FLOORS,
    degenerate_fuzz_pair,
    dense_pair,
    dirichlet_swept_pair,
    float_bits,
    forced_chain_layout_squares,
    fsum_majorized,
    literal_kraus_check,
    literal_schmidt_squares,
    outcome,
    window_inequality_defect,
)


def _sorted(layout):
    return SchmidtVector(tuple(sorted(layout, reverse=True)))


def plan_full(source, target):
    """plan_full, checking that each step's source and target states are its
    chain link's two layouts sorted: plan_full hands its chain's states to
    the steps."""
    plan = _plan_full(source, target)
    for k, step in enumerate(plan.steps):
        assert step.source == _sorted(plan.chain.layouts[k])
        assert step.target == _sorted(plan.chain.layouts[k + 1])
    return plan


class TestBlockDecompose:
    def test_tail_block_fixture(self, n4_pair):
        source, _ = n4_pair
        block, norm = _window_decompose(source.amps, (1, 2, 3))
        assert norm**2 == pytest.approx(0.6, abs=1e-12)
        assert block.squares == pytest.approx((0.5, 1 / 3, 1 / 6), abs=1e-12)

    def test_whole_state_block(self, n4_pair):
        source, _ = n4_pair
        block, norm = _window_decompose(source.amps, (0, 1, 2, 3))
        assert norm == pytest.approx(1.0, abs=1e-12)
        assert block.amps == pytest.approx(source.amps, abs=1e-15)

    def test_reassembly_is_exact(self, n4_pair):
        source, _ = n4_pair
        block, norm = _window_decompose(source.amps, (0, 2, 3))
        window = (source.amps[0], *source.amps[2:])
        assert norm == math.sqrt(sum(x * x for x in window))
        assert block.amps == tuple(x / norm for x in window)

    def test_zero_tail_raises(self):
        v = validate([0.5, 0.5, 0.0, 0.0], squared=True)
        with pytest.raises(ZeroBlockNorm):
            _window_decompose(v.amps, (2, 3))

    def test_product_state_head_included(self):
        v = validate([1.0, 0.0], squared=True)
        _, norm = _window_decompose(v.amps, (0, 1))  # block spans the full state, norm 1
        assert norm == pytest.approx(1.0, abs=1e-12)


class TestChooseOmega:
    def test_running_example(self, n4_pair):
        source, target = n4_pair
        block, norm = _window_decompose(source.amps, (1, 2, 3))
        omega = choose_omega(block, target.amps[2:], norm)
        assert omega.squares == pytest.approx((2 / 3, 1 / 4, 1 / 12), abs=1e-12)

    def test_identity_choice(self):
        block = validate([0.5, 1 / 3, 1 / 6], squared=True)
        omega = choose_omega(block, block.amps[1:], 1.0)
        assert omega.amps == pytest.approx(block.amps, abs=1e-12)

    def test_equal_tail_sums_hits_all_coefficients(self):
        # Tail weights agree, so the closing coefficient equals the
        # target's own coefficient at that slot.
        source = validate([0.4, 0.3, 0.2, 0.1], squared=True)
        target = validate([0.4, 0.35, 0.15, 0.1], squared=True)
        block, norm = _window_decompose(source.amps, (1, 2, 3))
        omega = choose_omega(block, target.amps[2:], norm)
        assert omega.amps[0] == pytest.approx(target.amps[1] / norm, abs=1e-12)

    def test_not_majorizing(self):
        block = validate([0.35 / 0.6, 0.25 / 0.6], squared=True)
        with pytest.raises(OmegaNotMajorizing):
            choose_omega(block, [math.sqrt(0.3)], math.sqrt(0.6))

    def test_normalization_underflow(self):
        block = validate([0.5, 0.5], squared=True)
        with pytest.raises(NormalizationUnderflow):
            choose_omega(block, [0.9], 0.3)

    def test_head_below_tail_head(self):
        block = validate([0.5, 0.5], squared=True)
        with pytest.raises(OmegaNotSorted):
            choose_omega(block, [0.9], 1.0)

    @pytest.mark.parametrize("norm", [0.0, -0.0, -1.0, math.nan, math.inf, "1.0", None])
    def test_block_norm_must_be_finite_and_positive(self, norm):
        # Refused by name: 0.0 would divide by zero, and a negative or NaN
        # norm would surface as a negative amplitude the caller never gave.
        block = validate([0.5, 0.5], squared=True)
        with pytest.raises(ZeroBlockNorm, match=rf"^block norm {re.escape(repr(norm))} must be"):
            choose_omega(block, [0.1], norm)
        for real in (1, True, np.float64(1.0), Fraction(1)):
            assert choose_omega(block, [0.5], real) == choose_omega(block, [0.5], 1.0)


class TestIntermediateChain:
    def test_running_example(self, n4_pair):
        chain = intermediate_chain(*n4_pair, 3)
        assert chain.l == 2
        assert chain.states[1].squares == pytest.approx(
            (0.4, 0.4, 0.15, 0.05), abs=1e-12
        )
        assert chain.tilde_values[0] ** 2 == pytest.approx(0.4, abs=1e-12)
        assert chain.windows == ((1, 2, 3), (0, 1))

    def test_trivial(self):
        v = validate([0.4, 0.3, 0.2, 0.1], squared=True)
        chain = intermediate_chain(v, v, 3)
        assert chain.l == 1
        assert chain.states == (v, v)

    def test_states_are_the_layouts_sorted(self):
        chain = IntermediateChain(((0.6, 0.8), (0.8, 0.6)), 2, (), ((0, 1),))
        assert chain.states == (SchmidtVector((0.8, 0.6)),) * 2
        assert chain.states is chain.states and chain.l == 1

    @pytest.mark.parametrize(
        "layout, error, message",
        [
            ((math.nan, 0.6), NegativeEntry, "amplitude nan at index 0"),
            ((math.inf, 0.6), NegativeEntry, "amplitude inf at index 0"),
            ((0.8, -0.6), NegativeEntry, "amplitude -0.6 at index 1"),
            ((1.0,), DimensionTooSmall, "need dimension >= 2, got 1"),
            (
                (math.sqrt(0.64 + 2e-9), 0.6),
                NotNormalized,
                "squared amplitudes sum off by 2.000e-09",
            ),
        ],
        ids=["nan", "inf", "negative", "one-entry", "off-norm"],
    )
    def test_a_bad_layout_raises_the_checked_constructors_error(self, layout, error, message):
        # The layouts' states skip the constructor's checks only when the
        # chain's own pass finds nothing wrong.
        first = layout if len(layout) == 1 else (0.8, 0.6)
        window = tuple(range(len(layout)))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            IntermediateChain((first, layout), 2, (), (window,))

    @pytest.mark.parametrize("layouts, windows", [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 4)])
    def test_one_window_per_link(self, n4_pair, layouts, windows):
        # Refused when the chain is built, not by a lift that indexes past
        # the end of its layouts or windows.
        source, _ = n4_pair
        message = f"^{windows} windows for {layouts} layouts$"
        with pytest.raises(ChainInvariantViolated, match=message):
            IntermediateChain((source.amps,) * layouts, 3, (), ((1, 2, 3),) * windows)

    @pytest.mark.parametrize(
        "window",
        [
            (1, 1, 2),
            (3, 2, 1),
            (-1, 0, 1),
            (1.0, 2.0, 3.0),
            (False, True, 2),
            (np.float64(1), 2, 3),
            (Fraction(1), 2, 3),
        ],
    )
    def test_windows_strictly_increase_within_the_dimension(self, n4_pair, window):
        source, _ = n4_pair
        message = rf"^index range {re.escape(str(window))} invalid for dimension 4$"
        with pytest.raises(IndexRangeInvalid, match=message):
            IntermediateChain((source.amps, source.amps), 3, (), (window,))

    @pytest.mark.parametrize("m", [2.5, 1, True, np.float64(3), Fraction(3)])
    def test_block_size_is_an_integer_of_at_least_two(self, n4_pair, m):
        source, _ = n4_pair
        message = rf"^block size {re.escape(repr(m))} must be an integer >= 2$"
        with pytest.raises(BlockTooLarge, match=message):
            IntermediateChain((source.amps, source.amps), m, (), ((1, 2, 3),))

    def test_block_size_and_window_indices_are_python_ints(self, n4_pair):
        # So that chain_section writes them (json refuses numpy integers).
        source, _ = n4_pair
        window = tuple(np.arange(1, 4))
        chain = IntermediateChain((source.amps, source.amps), np.int64(3), (), (window,))
        assert chain.m == 3 and chain.windows == ((1, 2, 3),)
        assert {type(chain.m)} | set(map(type, chain.windows[0])) == {int}
        assert intermediate_chain(*n4_pair, np.int64(3)) == intermediate_chain(*n4_pair, 3)

    @pytest.mark.parametrize("m", [2, 3, np.int64(4)])
    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_built_chains_equal_the_checked_construction(self, n, m, monkeypatch):
        # The builders build their windows from range and skip the window
        # checks; the chain, its states and its Python ints are the checked
        # constructor's.
        rng = np.random.default_rng([20261019, n])
        target = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        source = np.full(n, 1.0 / n)
        pair = validate(list(source), squared=True), validate(list(target), squared=True)
        checks = []
        monkeypatch.setattr(ladder, "_is_index", lambda i: checks.append(i) or True)
        chains = [greatest_first_chain(*pair, m)]
        try:
            chains.append(intermediate_chain(*pair, m))
        except LadderInfeasible:
            pass
        assert checks == []
        monkeypatch.undo()
        for chain in chains:
            if isinstance(chain, InfeasibilityCertificate):
                continue
            fields = (chain.layouts, chain.m, chain.tilde_values, chain.windows)
            checked = IntermediateChain(*fields)
            assert chain == checked and chain.states == checked.states
            assert {type(chain.m)} | {type(i) for w in chain.windows for i in w} == {int}

    def test_three_dim_degenerates_to_single_step(self, case1_pair):
        chain = intermediate_chain(*case1_pair, 3)
        assert chain.l == 1
        assert chain.states == case1_pair

    def test_suffix_fixed_bitwise(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 17))
            source, target = random_feasible_pair(rng, n)
            try:
                chain = intermediate_chain(source, target, 3)
            except LadderInfeasible:
                continue
            for k, layout in enumerate(chain.layouts[1:-1], start=1):
                assert layout[n - 2 * k :] == target.amps[n - 2 * k :]

    def test_window_inequalities(self, rng):
        # On the layouts of every majorized pair, those of the chains the
        # link check refuses included: no chain check re-derives these.
        for _ in range(100):
            n = int(rng.integers(3, 17))
            source, target = random_feasible_pair(rng, n)
            windows = _chain_windows(n, 3)
            layouts, _ = _chain_layouts(source, target, windows, True)
            for k, (x, y, w) in enumerate(zip(layouts, layouts[1:], windows)):
                x_sq = [a * a for a in x]
                y_sq = [a * a for a in y]
                assert window_inequality_defect(x_sq, y_sq, w) <= 1e-12
                assert all(x[i] == y[i] for i in range(n) if i not in w)
                assert y[n - 2 * (k + 1) :] == target.amps[n - 2 * (k + 1) :]

    def test_step_count_for_block_width_three(self, rng):
        for n in range(3, 17):
            source, target = random_feasible_pair(rng, n)
            try:
                chain = intermediate_chain(source, target, 3)
            except LadderInfeasible:
                continue
            if source.amps != target.amps:
                assert chain.l == n // 2

    def test_pairwise_chain_has_n_minus_1_steps(self):
        # Hand-checked pair whose 2-wide chain stays sorted at every link.
        source = validate([0.35, 0.25, 0.2, 0.12, 0.08], squared=True)
        target = validate([0.4, 0.25, 0.2, 0.1, 0.05], squared=True)
        chain = intermediate_chain(source, target, 2)
        assert chain.l == 4
        assert chain.states[1].squares == pytest.approx(
            (0.35, 0.25, 0.2, 0.15, 0.05), abs=1e-12
        )

    def test_chain_links_majorize(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 13))
            source, target = random_feasible_pair(rng, n)
            try:
                chain = intermediate_chain(source, target, 3)
            except LadderInfeasible:
                continue
            for a, b in zip(chain.states, chain.states[1:]):
                assert majorizes(a, b).holds

    def test_rank_monotone_along_chain(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 13))
            source, target = random_feasible_pair(rng, n)
            try:
                chain = intermediate_chain(source, target, 3)
            except LadderInfeasible:
                continue
            ranks = [effective_rank(s) for s in chain.states]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            assert all(r >= ranks[-1] for r in ranks)

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            intermediate_chain(
                validate([0.9, 0.1], squared=True),
                validate([0.8, 0.2], squared=True),
                2,
            )

    def test_forced_link_failure_raises_with_certificate(
        self, infeasible_ladder_pair
    ):
        source, target = infeasible_ladder_pair
        assert majorizes(source, target).holds
        with pytest.raises(LadderInfeasible) as exc_info:
            intermediate_chain(source, target, 3)
        cert = exc_info.value.certificate
        assert cert.kind == "link_not_majorized"
        assert cert.step_index == 2
        # Independent confirmation: the forced intermediate multiset really
        # is not majorized by the target.
        forced = forced_chain_layout_squares(source.squares, target.squares, 1)
        assert sorted(forced, reverse=True) == pytest.approx(
            [0.35, 0.3, 0.25, 0.1], abs=1e-12
        )
        assert not fsum_majorized(
            sorted(forced, reverse=True), sorted(target.squares, reverse=True)
        )


class TestGreatestFirstChain:
    def test_rank_collapse_fixture(self):
        source = validate([0.4, 0.3, 0.3], squared=True)
        target = validate([0.7, 0.2, 0.1], squared=True)
        cert = greatest_first_chain(source, target, 2)
        assert isinstance(cert, InfeasibilityCertificate)
        assert cert.kind == "rank_collapse"
        assert cert.step_index == 1
        assert abs(cert.tilde_sq) <= 1e-12
        assert cert.intermediate_rank == 2
        assert cert.target_rank == 3

    def test_trivial_no_collapse(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        chain = greatest_first_chain(v, v, 2)
        assert not isinstance(chain, InfeasibilityCertificate)

    def test_running_example_block_three(self, n4_pair):
        chain = greatest_first_chain(*n4_pair, 3)
        assert not isinstance(chain, InfeasibilityCertificate)
        assert chain.states[1].squares == pytest.approx(
            (0.55, 0.25, 0.1, 0.1), abs=1e-12
        )

    def test_negative_coefficient(self):
        source = validate([0.4, 0.3, 0.3], squared=True)
        target = validate([0.98, 0.01, 0.01], squared=True)
        cert = greatest_first_chain(source, target, 2)
        assert isinstance(cert, InfeasibilityCertificate)
        assert cert.kind == "negative_coefficient"
        assert cert.tilde_sq < 0

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            greatest_first_chain(
                validate([0.9, 0.1], squared=True),
                validate([0.8, 0.2], squared=True),
                2,
            )


def _identity_chain(state, window, layouts=None):
    """A one-link chain from state to itself on window, with the layouts
    it is given in place of the state's own."""
    return IntermediateChain(
        layouts=layouts or (state.amps, state.amps),
        m=len(window),
        tilde_values=(),
        windows=(tuple(window),),
    )


class TestEmbedStep:
    def test_identity_block_any_range(self, n4_pair):
        source, _ = n4_pair
        block, _ = _window_decompose(source.amps, (1, 2, 3))
        trivial = solve3(block, block)
        chain = _identity_chain(source, (1, 2, 3))
        step = embed_step(trivial, chain, 0)
        assert step.branches[0].op.diag == (1.0, 1.0, 1.0, 1.0)
        assert step.branches[0].prob == 1.0
        assert step.branches[0].correction == (0, 1, 2, 3)
        assert step.source is chain.states[0] and step.target is chain.states[1]
        assert chain.states == (source, source)

    def test_block_swap_becomes_full_swap(self, n4_pair):
        # Block relabel 1<->3 on indices {2,3,4} must surface as the full
        # relabel 2<->4 (0-based: 1<->3).
        source, target = n4_pair
        chain = intermediate_chain(source, target, 3)
        plan = plan_full(source, target)
        step = plan.steps[0]
        assert step.window == (1, 2, 3)
        assert step.branches[2].correction == (0, 3, 2, 1)
        assert chain.states[1] == step.target

    def test_untouched_indices_carry_sqrt_prob(self, n4_pair):
        plan = plan_full(*n4_pair)
        for br in plan.steps[0].branches:
            assert br.op.diag[0] == pytest.approx(math.sqrt(br.prob), abs=1e-15)

    def test_full_dimension_completeness(self, n4_pair):
        plan = plan_full(*n4_pair)
        ops = plan.steps[0].branches
        for j in range(4):
            total = sum(br.op.diag[j] ** 2 for br in ops)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_index_range(self, n4_pair):
        source, _ = n4_pair
        block, _ = _window_decompose(source.amps, (1, 2, 3))
        trivial = solve3(block, block)
        with pytest.raises(IndexRangeInvalid, match=r"^index range \(1, 2, 9\) invalid"):
            _identity_chain(source, (1, 2, 9))
        with pytest.raises(IndexRangeInvalid, match="incompatible with block size 3$"):
            embed_step(trivial, _identity_chain(source, (1, 2)), 0)

    @pytest.mark.parametrize("k", [-1, 1, 2, True, False, 0.0, np.float64(0), Fraction(0)])
    def test_link_must_be_an_integer_in_range(self, n4_pair, k):
        source, _ = n4_pair
        block, _ = _window_decompose(source.amps, (1, 2, 3))
        trivial = solve3(block, block)
        chain = _identity_chain(source, (1, 2, 3))
        with pytest.raises(IndexRangeInvalid, match=r"^link .* not in \[0, 1\)$"):
            embed_step(trivial, chain, k)
        assert embed_step(trivial, chain, np.int64(0)) == embed_step(trivial, chain, 0)

    def test_layout_length_must_match_the_dimension(self, n4_pair):
        source, _ = n4_pair
        with pytest.raises(IndexRangeInvalid, match="^layout 1 spans 5 indices, expected 4$"):
            _identity_chain(source, (1, 2, 3), layouts=(source.amps, source.amps + (0.0,)))

    @pytest.mark.parametrize("prob", [math.nan, 1.5, math.inf, -0.25])
    def test_block_step_probabilities_lie_in_the_unit_interval(self, prob):
        # The window spans every index, so sqrt(prob) lands in no operator
        # entry and the completeness check cannot see a bad prob.
        source = SchmidtVector((0.8, 0.6))
        target = SchmidtVector((math.sqrt(0.8), math.sqrt(0.2)))
        chain = intermediate_chain(source, target, 2)
        step = ladder.solve2(source, target)
        assert embed_step(step, chain, 0).branches[0].prob == step.branches[0].prob
        bad = replace(step, branches=(replace(step.branches[0], prob=prob), *step.branches[1:]))
        message = r"^block step probabilities must lie in \[0, 1\] and sum to one$"
        with pytest.raises(ChainInvariantViolated, match=message):
            embed_step(bad, chain, 0)

    def test_window_must_carry_weight(self):
        v = validate([0.5, 0.5, 0.0, 0.0], squared=True)
        block = validate([0.5, 0.5], squared=True)
        trivial = ladder.solve2(block, block)
        with pytest.raises(ZeroBlockNorm, match=r"^block at indices \(2, 3\) carries no weight$"):
            embed_step(trivial, _identity_chain(v, (2, 3)), 0)

    def test_window_weight_at_most_eps_zero(self):
        # The window's squared weight is 1e-13, under EPS_ZERO and not zero:
        # embed_step weighs it as _window_decompose does.
        tail = math.sqrt(5e-14)
        v = SchmidtVector((math.sqrt(0.5), math.sqrt(0.5 - 1e-13), tail, tail))
        block = validate([0.5, 0.5], squared=True)
        trivial = ladder.solve2(block, block)
        with pytest.raises(ZeroBlockNorm, match=r"^block at indices \(2, 3\) carries no weight$"):
            embed_step(trivial, _identity_chain(v, (2, 3)), 0)

    def test_block_target_must_match_the_next_layout(self, n4_pair):
        source, target = n4_pair
        chain = intermediate_chain(source, target, 3)
        block, _ = _window_decompose(chain.layouts[0], chain.windows[0])
        with pytest.raises(IndexRangeInvalid, match="^target window content disagrees"):
            embed_step(solve3(block, block), chain, 0)

    @pytest.mark.parametrize("d", [1e-11, 1e-6, 1e-3])
    def test_lift_refuses_a_link_that_moves_an_index_outside_its_window(self, n4_pair, d):
        # Weight d moves from index 1 to index 0 of layout 1, which stays
        # normalized; link 0's window is (1, 2, 3).
        chain = intermediate_chain(*n4_pair, 3)
        sq = [a * a for a in chain.layouts[1]]
        sq[0], sq[1] = sq[0] + d, sq[1] - d
        moved = (chain.layouts[0], tuple(map(math.sqrt, sq)), chain.layouts[2])
        bad = IntermediateChain(moved, chain.m, chain.tilde_values, chain.windows)
        with pytest.raises(IndexRangeInvalid, match="^target window content disagrees"):
            _lift(bad)

    def test_plan_full_lifts_each_step_through_embed_step(self, n4_pair, monkeypatch):
        # Through the module global, so that a wrapper (the benchmark's
        # tracer) sees every step.
        windows = []
        lift = ladder.embed_step

        def counted(block_step, chain, k):
            windows.append(chain.windows[k])
            return lift(block_step, chain, k)

        monkeypatch.setattr(ladder, "embed_step", counted)
        plan_full(*n4_pair)
        assert windows == [(1, 2, 3), (0, 1)]

    def test_every_feasible_greatest_first_link_lifts(self):
        # The layouts of a greatest-first chain need not be sorted (190 of
        # these 211 chains have an unsorted one), so its links exercise
        # embed_step's sorting permutations.
        rng = np.random.default_rng(3)
        lifted = 0
        for _ in range(3000):
            n = int(rng.integers(4, 12))
            source, target = random_feasible_pair(rng, n)
            chain = greatest_first_chain(source, target, 3)
            if isinstance(chain, InfeasibilityCertificate):
                continue
            # Each link lifted as plan_full lifts the ladder's.
            plan = LadderPlan(chain=chain, steps=_lift(chain), source=source, target=target)
            assert verify_plan(plan).passed
            lifted += 1
        assert lifted == 211


@pytest.mark.parametrize("build", [intermediate_chain, greatest_first_chain])
def test_block_size_must_be_an_integer(build, n4_pair):
    with pytest.raises(BlockTooLarge, match="^block size 2.5 must be an integer >= 2$"):
        build(*n4_pair, 2.5)
    assert build(*n4_pair, np.int64(3)) == build(*n4_pair, 3)


def _greatest_first_windows_reference(n, m):
    """greatest_first_chain's own window loop from before both builders
    shared _chain_windows."""
    l = 1 + math.ceil((n - m) / (m - 1)) if n > m else 1
    wins, prev = [], 1
    for k in range(1, l):
        q = k * (m - 1) + 1
        wins.append(tuple(range(prev - 1, q)))
        prev = q
    wins.append(tuple(range(prev - 1, n)))
    return tuple(wins)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 64), m=st.integers(2, 8))
def test_chain_windows_cover_and_link(n, m):
    links = 1 + math.ceil((n - m) / (m - 1)) if n > m else 1
    for wins in (_chain_windows(n, m), _chain_windows(n, m, greatest_first=True)):
        assert set().union(*wins) == set(range(n))
        assert all(list(w) == sorted(set(w)) for w in wins)
        assert all(len(set(a) & set(b)) == 1 for a, b in zip(wins, wins[1:]))
        assert all(len(w) == m for w in wins[:-1])
        assert len(wins) == links
    assert _chain_windows(n, m, greatest_first=True) == _greatest_first_windows_reference(n, m)


def _linear_swept_pair():
    """Target proportional to (32, ..., 1); the source is the target after a
    forward sweep of adjacent 0.75/0.25 averaging moves, sorted."""
    target = np.arange(32, 0, -1, dtype=float)
    target /= target.sum()
    source = target.copy()
    for i in range(31):
        a, b = source[i], source[i + 1]
        source[i], source[i + 1] = 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b
    return sorted(source.tolist(), reverse=True), target.tolist()


class TestPlanFull:
    def test_running_example_step_probabilities(self, n4_pair):
        plan = plan_full(*n4_pair)
        assert len(plan.steps) == 2
        assert plan.steps[0].case_tag == CASE_I
        assert [br.prob for br in plan.steps[0].branches] == pytest.approx(
            [23 / 35, 1 / 5, 1 / 7], abs=1e-12
        )
        assert plan.steps[1].case_tag == TWO_OUTCOME
        assert [br.prob for br in plan.steps[1].branches] == pytest.approx(
            [0.5, 0.5], abs=1e-12
        )

    def test_two_dim_problem(self):
        plan = plan_full(
            validate([0.5, 0.5], squared=True),
            validate([0.6875, 0.3125], squared=True),
        )
        assert len(plan.steps) == 1
        assert plan.steps[0].case_tag == TWO_OUTCOME
        assert [br.prob for br in plan.steps[0].branches] == pytest.approx(
            [0.5, 0.5], abs=1e-12
        )

    def test_three_dim_problem(self, case2_pair):
        plan = plan_full(*case2_pair)
        assert len(plan.steps) == 1
        assert plan.steps[0].case_tag == CASE_II

    def test_identity_short_circuits(self):
        v = validate([0.3, 0.25, 0.2, 0.15, 0.1], squared=True)
        plan = plan_full(v, v)
        assert len(plan.steps) == 1
        assert plan.steps[0].case_tag == TRIVIAL

    def test_step_count_floor_half_n(self, rng):
        built = 0
        for n in range(3, 17):
            for _ in range(20):
                source, target = random_feasible_pair(rng, n)
                if source.amps == target.amps:
                    continue
                try:
                    plan = plan_full(source, target)
                except LadderInfeasible:
                    continue
                assert len(plan.steps) == n // 2
                built += 1
        assert built > 50

    def test_branch_paths_compose_to_unity(self, n4_pair):
        plan = plan_full(*n4_pair)
        total = 0.0
        for b0 in plan.steps[0].branches:
            for b1 in plan.steps[1].branches:
                total += b0.prob * b1.prob
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_unsorted_intermediate_layout_still_plans(self):
        # The inserted coefficient outgrows the untouched head; the final
        # block is solved in sorted coordinates and conjugated back.
        source = validate([0.3, 0.25, 0.25, 0.2], squared=True)
        target = validate([0.4, 0.3, 0.2, 0.1], squared=True)
        plan = plan_full(source, target)
        layout_sq = [a * a for a in plan.chain.layouts[1]]
        assert layout_sq == pytest.approx([0.3, 0.4, 0.2, 0.1], abs=1e-12)
        assert len(plan.steps) == 2

    def test_rank_dropping_target_plans(self):
        source = validate([0.4, 0.3, 0.2, 0.1], squared=True)
        target = validate([0.6, 0.4, 0.0, 0.0], squared=True)
        plan = plan_full(source, target)
        assert len(plan.steps) == 2
        assert plan.steps[-1].target.squares == pytest.approx(
            target.squares, abs=1e-12
        )

    @pytest.mark.parametrize(
        "pair",
        [
            _linear_swept_pair(),
            # Dirichlet(5) targets, as the plan-dense benchmark draws them;
            # p2 (seed 163) and p3 (seed 136) came out near -1.1e-12 and
            # -2.6e-12.
            dirichlet_swept_pair(163),
            dirichlet_swept_pair(136),
        ],
        ids=["n32-linear", "n64-seed163", "n64-seed136"],
    )
    def test_rounded_ties_at_large_n_plan_and_verify(self, pair):
        # Rounding in the chain grows with n; tied block coefficients must
        # give a verified plan, not a negative probability.
        source, target = (validate(x, squared=True) for x in pair)
        plan = plan_full(source, target)
        assert len(plan.steps) == source.n // 2
        assert verify_plan(plan).passed

    def test_infeasible_pair_certificate(self, infeasible_ladder_pair):
        with pytest.raises(LadderInfeasible) as exc_info:
            plan_full(*infeasible_ladder_pair)
        assert exc_info.value.certificate.kind == "link_not_majorized"

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            plan_full(
                validate([0.9, 0.1], squared=True),
                validate([0.8, 0.2], squared=True),
            )

    def test_plan_matches_standalone_solver_on_blocks(self, n4_pair, case1_pair):
        # The embedded first step must reproduce the standalone 3-dim
        # solution of its normalized block.
        source, target = n4_pair
        plan = plan_full(source, target)
        block, norm = _window_decompose(source.amps, (1, 2, 3))
        omega = choose_omega(block, target.amps[2:], norm)
        block_step = solve3(block, omega)
        embedded = [br.prob for br in plan.steps[0].branches]
        standalone = [br.prob for br in block_step.branches]
        assert embedded == pytest.approx(standalone, abs=1e-12)


# sha256 of json.dumps({"chain": chain_section, "steps": steps_section},
# sort_keys=True) for each pair (squared coefficients).  These sections hold
# planner arithmetic only, no BLAS or LAPACK output, so the digests do not
# depend on the machine.  A moved byte in the planner fails here.
PLANNER_DIGESTS = [
    ("dense-24", dense_pair(24), "3209aac6d125075115586f56688b9b5c867aa424c611b3ef35fc9e937b640ac3"),
    ("dense-32", dense_pair(32), "81fa09e87852aca5180879385ef84f8cfa61fb353364db224da08ebfa4412eda"),
    ("dense-48", dense_pair(48), "24ac76c9103395f55f936e257c0312a2b157ecba51f13f65417b874e41e72a42"),
    ("dense-64", dense_pair(64), "e59859d469510178ef9f9fea2bbf450f72cd526735c4dbb497cca58b1a4ea55b"),
    ("ties-4", DEGENERATE_PAIRS[0], "8a02d49133c209a1a7dd79619ac572d3291f3c2bb7e1af80f068584c0962b78c"),
    ("ties-5", DEGENERATE_PAIRS[1], "755db8e1274c33c526bca7b65901be823dba2efd7a81b80149448dae52316e06"),
    ("ties-6", DEGENERATE_PAIRS[2], "57a6e8fdea50961bfb4631e7484edc936ab928397ebae2c06f2d2cbe593e13ee"),
    ("zero-tail-7", DEGENERATE_PAIRS[3], "2769ec1b34c83ffb3d4069002c1039316d27c6e6e2d39d792aec4d0b6088e155"),
    ("tiny-6a", DEGENERATE_PAIRS[4], "b6bd5add734f1cf1dabd717b063e4cd1d346ced74756abbb51b5febae21ae905"),
    ("tiny-6b", DEGENERATE_PAIRS[5], "2a49af894d6bb4edbf345c4094e503d59ebb3f75d2d1d22c4f00df4d995c9a4b"),
    (
        "readme-n4",
        ([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05]),
        "f4a379588f1a8b6b6e44e5bc510d15f78e5db538ead675019ed1de5b86f51d5f",
    ),
]


@pytest.mark.parametrize(
    "pair, digest", [c[1:] for c in PLANNER_DIGESTS], ids=[c[0] for c in PLANNER_DIGESTS]
)
def test_planner_bytes_are_pinned(pair, digest):
    plan = plan_full(*(validate(x, squared=True) for x in pair))
    doc = {"chain": chain_section(plan.chain), "steps": steps_section(plan)}
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


DEMO_PAYLOADS = {
    "gf-fixture": {"source": [0.4, 0.3, 0.3], "target": [0.7, 0.2, 0.1]},
    "ladder-gap": {"source": [0.25, 0.25, 0.25, 0.25], "target": [0.3, 0.3, 0.3, 0.1]},
    "readme-n4": {"source": [0.4, 0.3, 0.2, 0.1], "target": [0.55, 0.25, 0.15, 0.05]},
}


def _pinned_outcome(fn, *args):
    """What fn(*args) answers, as JSON-ready data: a chain's or plan's
    sections, a certificate's, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except LadderInfeasible as exc:
        return ["LadderInfeasible", certificate_section(exc.certificate)]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(result, InfeasibilityCertificate):
        return ["certificate", certificate_section(result)]
    if isinstance(result, LadderPlan):
        return ["plan", chain_section(result.chain), steps_section(result)]
    return ["chain", chain_section(result)]


def test_chain_builders_outcomes_are_pinned():
    # 512 degenerate fuzz pairs through both chain builders at m = 2, 3, 4
    # and plan_full, refusals and errors included, then demo-infeasible's
    # machine output: one sha256 over all of it.  The digest was taken
    # before the two builders shared one layout loop.
    rng = np.random.default_rng(12)
    outcomes, gf_kinds = [], set()
    for trial in range(512):
        pair = degenerate_fuzz_pair(rng, trial, PIN_FLOORS[trial % 4])
        source, target = (validate(x, squared=True, autosort=True) for x in pair)
        for m in (2, 3, 4):
            outcomes.append(_pinned_outcome(intermediate_chain, source, target, m))
            gf = _pinned_outcome(greatest_first_chain, source, target, m)
            gf_kinds.add(gf[1]["kind"] if gf[0] == "certificate" else gf[0])
            outcomes.append(gf)
        outcomes.append(_pinned_outcome(_plan_full, source, target))
    for name, payload in DEMO_PAYLOADS.items():
        for m in ("2", "3"):
            stdout = io.StringIO()
            argv = ["demo-infeasible", "--squared", "--format", "machine", "--m", m]
            code = cli_main(argv, io.StringIO(json.dumps(payload)), stdout, io.StringIO())
            outcomes.append([name, m, code, stdout.getvalue()])
    assert {"chain", "negative_coefficient", "rank_collapse", "link_not_majorized"} <= gf_kinds
    assert any(o[0] == "plan" for o in outcomes)
    text = json.dumps(outcomes, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "477083377bb6a7978f46b899a8140897b64249160151c8e1c6b2f661b107a48b"


def test_unchecked_constructions_pass_the_checks_they_skip(monkeypatch):
    # Every state and operator built through a private constructor, over
    # the plans and greatest-first chains of the pinned corpus, is one the
    # checked constructor accepts, holding the squares it computes.
    built = []
    for cls in (SchmidtVector, DiagonalKraus):

        def record(_cls, values, trusted=cls._trusted):
            built.append(trusted(values))
            return built[-1]

        monkeypatch.setattr(cls, "_trusted", classmethod(record))
    rng = np.random.default_rng(12)
    for trial in range(512):
        pair = degenerate_fuzz_pair(rng, trial, PIN_FLOORS[trial % 4])
        source, target = (validate(x, squared=True, autosort=True) for x in pair)
        outcome(_plan_full, source, target)
        for m in (2, 3, 4):
            outcome(greatest_first_chain, source, target, m)
    assert min(Counter(map(type, built))[cls] for cls in (SchmidtVector, DiagonalKraus)) > 1000
    for value in built:
        if isinstance(value, SchmidtVector):
            assert float_bits(value.squares) == float_bits(literal_schmidt_squares(value.amps))
        else:
            literal_kraus_check(value.diag)
