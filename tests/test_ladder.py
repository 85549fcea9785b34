import math

import numpy as np
import pytest

from locc_ladder import (
    CASE_I,
    CASE_II,
    TRIVIAL,
    TWO_OUTCOME,
    BlockTooLarge,
    InfeasibilityCertificate,
    IndexRangeInvalid,
    LadderInfeasible,
    NormalizationUnderflow,
    NotMajorized,
    OmegaNotMajorizing,
    OmegaNotSorted,
    ZeroBlockNorm,
    block_decompose,
    choose_omega,
    effective_rank,
    embed_step,
    greatest_first_chain,
    intermediate_chain,
    majorizes,
    plan_full,
    solve3,
    validate,
    verify_plan,
)
from locc_ladder.sampling import random_feasible_pair

from helpers import (
    dirichlet_swept_pair,
    forced_chain_layout_squares,
    fsum_majorized,
    window_inequality_defect,
)


class TestBlockDecompose:
    def test_tail_block_fixture(self, n4_pair):
        source, _ = n4_pair
        d = block_decompose(source, 3)
        assert d.block_norm**2 == pytest.approx(0.6, abs=1e-12)
        assert d.block.squares == pytest.approx((0.5, 1 / 3, 1 / 6), abs=1e-12)
        assert d.index_range == (1, 2, 3)
        assert d.prefix == source.amps[:1]
        assert d.suffix == ()

    def test_whole_state_block(self, n4_pair):
        source, _ = n4_pair
        d = block_decompose(source, 4)
        assert d.prefix == ()
        assert d.block_norm == pytest.approx(1.0, abs=1e-12)
        assert d.block.amps == pytest.approx(source.amps, abs=1e-15)

    def test_reassembly_is_exact(self, n4_pair):
        source, _ = n4_pair
        d = block_decompose(source, 3)
        assert d.prefix + d.window + d.suffix == source.amps  # bitwise copies

    def test_zero_tail_raises(self):
        v = validate([0.5, 0.5, 0.0, 0.0], squared=True)
        with pytest.raises(ZeroBlockNorm):
            block_decompose(v, 2)

    def test_product_state_head_included(self):
        v = validate([1.0, 0.0], squared=True)
        d = block_decompose(v, 2)  # block spans the full state, norm 1
        assert d.block_norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 5])
    def test_block_size_bounds(self, m, n4_pair):
        with pytest.raises(BlockTooLarge):
            block_decompose(n4_pair[0], m)


class TestChooseOmega:
    def test_running_example(self, n4_pair):
        source, target = n4_pair
        d = block_decompose(source, 3)
        omega = choose_omega(d.block, target.amps[2:], d.block_norm)
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
        d = block_decompose(source, 3)
        omega = choose_omega(d.block, target.amps[2:], d.block_norm)
        assert omega.amps[0] == pytest.approx(target.amps[1] / d.block_norm, abs=1e-12)

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
        for _ in range(100):
            n = int(rng.integers(3, 17))
            source, target = random_feasible_pair(rng, n)
            try:
                chain = intermediate_chain(source, target, 3)
            except LadderInfeasible:
                continue
            for x, y, w in zip(chain.layouts, chain.layouts[1:], chain.windows):
                x_sq = [a * a for a in x]
                y_sq = [a * a for a in y]
                assert window_inequality_defect(x_sq, y_sq, w) <= 1e-12

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


class TestEmbedStep:
    def test_identity_block_any_range(self, n4_pair):
        source, _ = n4_pair
        d = block_decompose(source, 3)
        block = d.block
        trivial = solve3(block, block)
        step = embed_step(trivial, d, 4)
        assert step.branches[0].op.diag == (1.0, 1.0, 1.0, 1.0)
        assert step.branches[0].prob == 1.0
        assert step.branches[0].correction == (0, 1, 2, 3)

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
        d = block_decompose(source, 3)
        trivial = solve3(d.block, d.block)
        bad = type(d)(
            prefix=d.prefix,
            suffix=d.suffix,
            window=d.window,
            block=d.block,
            block_norm=d.block_norm,
            index_range=(1, 2, 9),
        )
        with pytest.raises(IndexRangeInvalid):
            embed_step(trivial, bad, 4)


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
        d = block_decompose(source, 3)
        omega = choose_omega(d.block, target.amps[2:], d.block_norm)
        block_step = solve3(d.block, omega)
        embedded = [br.prob for br in plan.steps[0].branches]
        standalone = [br.prob for br in block_step.branches]
        assert embedded == pytest.approx(standalone, abs=1e-12)
