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
    MeasurementStep,
    NegativeEntry,
    NormalizationUnderflow,
    NotMajorized,
    NotNormalized,
    OmegaNotMajorizing,
    OmegaNotSorted,
    OutcomeBranch,
    SchmidtVector,
    ZeroBlockNorm,
    choose_omega,
    effective_rank,
    embed_step,
    greatest_first_chain,
    intermediate_chain,
    majorizes,
    solve2,
    solve3,
    validate,
    verify_plan,
)
from locc_ladder import ladder
from locc_ladder import plan_full as _plan_full
from locc_ladder.cli import main as cli_main
from locc_ladder.errors import ChainInvariantViolated, LoccLadderError
from locc_ladder.ladder import _chain_layouts, _chain_windows, _lift, _window_decompose
from locc_ladder.oracle import TOLERANCES
from locc_ladder.schmidt import EPS_CMP
from locc_ladder.transcript import certificate_section, chain_section, steps_section

from helpers import (
    DEGENERATE_PAIRS,
    PIN_FLOORS,
    degenerate_fuzz_pair,
    dense_pair,
    dirichlet_swept_pair,
    exact_ladder_feasible,
    exact_link_margin,
    float_bits,
    forced_chain_layout_squares,
    fsum_majorized,
    literal_kraus_check,
    literal_schmidt_squares,
    outcome,
    padded_block_step,
    post_amps,
    window_inequality_defect,
)
from sampling import random_feasible_pair


def _lands_on(step, amps, state):
    """Whether every branch of step, applied to amps, ends in state, within EPS_CMP."""
    return all(
        all(abs(x - y) <= EPS_CMP for x, y in zip(post_amps(br, amps), state.amps))
        for br in step.branches
    )


def plan_full(source, target):
    """plan_full, checking that every branch of step k lands on the chain's
    state k + 1, and the last step on the target."""
    plan = _plan_full(source, target)
    layouts = plan.chain.layouts
    for k, step in enumerate(plan.steps):
        assert _lands_on(step, layouts[k], plan.chain.states[k + 1])
    assert _lands_on(plan.steps[-1], layouts[-2], target)
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

    @pytest.mark.parametrize(
        "norm",
        [0.0, -0.0, -1.0, math.nan, math.inf, "1.0", None, True, pytest.param(10**400, id="10**400")],
    )
    def test_block_norm_must_be_finite_and_positive(self, norm):
        # Refused by name: 0.0 would divide by zero, and a negative or NaN
        # norm would surface as a negative amplitude the caller never gave;
        # a bool is not a number to the entry rule.
        block = validate([0.5, 0.5], squared=True)
        with pytest.raises(ZeroBlockNorm, match=rf"^block norm {re.escape(repr(norm))} must be"):
            choose_omega(block, [0.1], norm)
        for real in (1, np.float64(1.0), Fraction(1)):
            assert choose_omega(block, [0.5], real) == choose_omega(block, [0.5], 1.0)

    @pytest.mark.parametrize(
        "tail",
        ["0.5", True, None, math.nan, -0.5, pytest.param(10**400, id="10**400")],
    )
    def test_tail_amplitudes_pass_the_entry_rule(self, tail):
        # Refused by name, before a str is parsed, a bool read as 1.0 or a
        # NaN reported as omega's head.
        block = validate([0.5, 0.5], squared=True)
        message = rf"^tail amplitude {re.escape(repr(tail))} at index 0$"
        with pytest.raises(NegativeEntry, match=message):
            choose_omega(block, [tail], 1.0)
        for real in (np.float64(0.5), Fraction(1, 2)):
            assert choose_omega(block, [real], 1.0) == choose_omega(block, [0.5], 1.0)
        assert choose_omega(block, [-0.0], 1.0) == SchmidtVector((1.0, -0.0))


class TestIntermediateChain:
    def test_running_example(self, n4_pair):
        chain = intermediate_chain(*n4_pair, 3)
        assert chain.l == 2
        assert chain.states[1].squares == pytest.approx(
            (0.4, 0.4, 0.15, 0.05), abs=1e-12
        )
        assert chain.layouts[1][1] ** 2 == pytest.approx(0.4, abs=1e-12)
        assert chain.windows == ((1, 2, 3), (0, 1))

    def test_trivial(self):
        v = validate([0.4, 0.3, 0.2, 0.1], squared=True)
        chain = intermediate_chain(v, v, 3)
        assert chain.l == 1
        assert chain.states == (v, v)

    def test_states_are_the_layouts_sorted(self):
        chain = IntermediateChain(((0.6, 0.8), (0.8, 0.6)), 2, ((0, 1),))
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
            ((10**400, 0.6), NegativeEntry, "layout 1 has an entry too large for a float"),
        ],
        ids=["nan", "inf", "negative", "one-entry", "off-norm", "int-beyond-float"],
    )
    def test_a_bad_layout_raises_the_checked_constructors_error(self, layout, error, message):
        # A public chain's states go through the checked constructor once
        # its layouts are floats; the conversion refuses what a float cannot hold.
        first = layout if len(layout) == 1 else (0.8, 0.6)
        window = tuple(range(len(layout)))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            IntermediateChain((first, layout), 2, (window,))

    @pytest.mark.parametrize("real", [np.float64, Fraction])
    def test_layouts_are_held_as_floats(self, real):
        # So that the chain's transcript section is written, and written as
        # the float chain's.
        floats = ((0.6, 0.8), (0.8, 0.6))
        given = tuple(tuple(real(str(a)) for a in x) for x in floats)
        chain = IntermediateChain(given, 2, ((0, 1),))
        assert chain.layouts == floats and {type(a) for x in chain.layouts for a in x} == {float}
        float_chain = IntermediateChain(floats, 2, ((0, 1),))
        assert json.dumps(chain_section(chain)) == json.dumps(chain_section(float_chain))

    @pytest.mark.parametrize("real", [Fraction, np.float32])
    def test_chains_from_states_of_any_real_type_hold_floats(self, real):
        # A state holds its amplitudes as floats, so a chain or plan built
        # from it is written as the float state's.  0.5 is exact in both types.
        v, u = SchmidtVector((real(0.5),) * 4), SchmidtVector((0.5,) * 4)
        assert v == u and {type(a) for a in v.amps} == {float}
        w = validate([0.5, 0.25, 0.125, 0.125], squared=True)

        def written(source, target):
            plan = _plan_full(source, target)
            chain = intermediate_chain(source, target, 3)
            return json.dumps([chain_section(chain), chain_section(plan.chain), steps_section(plan)])

        assert written(v, v) == written(u, u)
        assert written(v, w) == written(u, w)

    @pytest.mark.parametrize("entry", ["x", True, None, 0.6j, np.bool_(True)])
    def test_a_layout_entry_that_is_not_a_real_number_is_named(self, entry):
        # Refused before the layouts are sorted: a str beside a float would
        # not sort, and a bool would be read as 1 or 0.
        message = f"^layout 1 entry {re.escape(repr(entry))} at index 0 is not a real number$"
        with pytest.raises(NegativeEntry, match=message):
            IntermediateChain(((0.8, 0.6), (entry, 0.6)), 2, ((0, 1),))

    @pytest.mark.parametrize("layouts, windows", [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 4)])
    def test_one_window_per_link(self, n4_pair, layouts, windows):
        # Refused when the chain is built, not by a lift that indexes past
        # the end of its layouts or windows.
        source, _ = n4_pair
        message = f"^{windows} windows for {layouts} layouts$"
        with pytest.raises(ChainInvariantViolated, match=message):
            IntermediateChain((source.amps,) * layouts, 3, ((1, 2, 3),) * windows)

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
            IntermediateChain((source.amps, source.amps), 3, (window,))

    @pytest.mark.parametrize("m", [2.5, 1, True, np.float64(3), Fraction(3)])
    def test_block_size_is_an_integer_of_at_least_two(self, n4_pair, m):
        source, _ = n4_pair
        message = rf"^block size {re.escape(repr(m))} must be an integer >= 2$"
        with pytest.raises(BlockTooLarge, match=message):
            IntermediateChain((source.amps, source.amps), m, ((1, 2, 3),))

    def test_block_size_and_window_indices_are_python_ints(self, n4_pair):
        # So that chain_section writes them (json refuses numpy integers).
        source, _ = n4_pair
        window = tuple(np.arange(1, 4))
        chain = IntermediateChain((source.amps, source.amps), np.int64(3), (window,))
        assert chain.m == 3 and chain.windows == ((1, 2, 3),)
        assert {type(chain.m)} | set(map(type, chain.windows[0])) == {int}
        assert intermediate_chain(*n4_pair, np.int64(3)) == intermediate_chain(*n4_pair, 3)

    @pytest.mark.parametrize("m", [2, 3, np.int64(4)])
    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_built_chains_equal_the_checked_construction(self, n, m, monkeypatch):
        # The builders build their windows from range and skip the window
        # checks: the integer rule is asked only of each builder's block
        # size.  The chain, its states and its Python ints are the checked
        # constructor's.
        rng = np.random.default_rng([20261019, n])
        target = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        source = np.full(n, 1.0 / n)
        pair = validate(list(source), squared=True), validate(list(target), squared=True)
        checks = []
        monkeypatch.setattr(ladder, "_is_integer_kind", lambda kind: checks.append(kind) or True)
        chains = [greatest_first_chain(*pair, m)]
        try:
            chains.append(intermediate_chain(*pair, m))
        except LadderInfeasible:
            pass
        assert checks == [type(m)] * 2
        monkeypatch.undo()
        for chain in chains:
            if isinstance(chain, InfeasibilityCertificate):
                continue
            fields = (chain.layouts, chain.m, chain.windows)
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


# Squared coefficients whose first window, (1, 2, 3), ends in the source's
# zero: its block is solved on the two positive heads, and the zero's rank
# is carried through the lift untouched.
ZERO_TAIL_BLOCK_PAIR = ([0.4, 0.35, 0.25, 0.0], [0.6, 0.3, 0.1, 0.0])


def _identity_chain(state, window, layouts=None):
    """A one-link chain from state to itself on window, with the layouts
    it is given in place of the state's own."""
    return IntermediateChain(
        layouts=layouts or (state.amps, state.amps),
        m=len(window),
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
        assert _lands_on(step, chain.layouts[0], chain.states[1])
        assert chain.states == (source, source)

    def test_block_swap_becomes_full_swap(self, n4_pair):
        # Block relabel 1<->3 on indices {2,3,4} must surface as the full
        # relabel 2<->4 (0-based: 1<->3).
        source, target = n4_pair
        chain = intermediate_chain(source, target, 3)
        plan = plan_full(source, target)
        step = plan.steps[0]
        assert plan.chain.windows[0] == (1, 2, 3)
        assert step.branches[2].correction == (0, 3, 2, 1)
        assert _lands_on(step, chain.layouts[0], chain.states[1])

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

    def test_a_step_on_the_leading_ranks_lifts_as_its_padding(self):
        # The first link's block ends in the source's zero, so the planner
        # solves its two positive heads; lifted onto the 3-index window, that
        # step must equal the lift of the same step padded to the window.
        source, target = (validate(x, squared=True) for x in ZERO_TAIL_BLOCK_PAIR)
        chain = intermediate_chain(source, target, 3)
        block, norm = _window_decompose(chain.layouts[0], chain.windows[0])
        tail = sorted((chain.layouts[1][i] for i in chain.windows[0]), reverse=True)[1:]
        omega = choose_omega(block, tail, norm)
        heads = solve2(SchmidtVector(block.amps[:2]), SchmidtVector(omega.amps[:2]))
        assert ladder._solve_block(block, omega) == heads
        padded = padded_block_step(heads, block)
        sizes = {(a.op.n, b.op.n) for a, b in zip(heads.branches, padded.branches)}
        assert (sizes, block.amps[2]) == ({(2, 3)}, 0.0)
        lifted = embed_step(heads, chain, 0)
        assert lifted == embed_step(padded, chain, 0)
        assert lifted == plan_full(source, target).steps[0]

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
        # A step with no outcomes is refused here, before its block size is read.
        with pytest.raises(ChainInvariantViolated, match=message):
            embed_step(replace(step, branches=()), chain, 0)

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
        # The lift does not check where a branch lands: verify_plan refuses
        # the plan whose step 0 stays on layout 0.
        source, target = n4_pair
        chain = intermediate_chain(source, target, 3)
        block, _ = _window_decompose(chain.layouts[0], chain.windows[0])
        steps = (embed_step(solve3(block, block), chain, 0), *_lift(chain)[1:])
        report = verify_plan(LadderPlan(chain=chain, steps=steps))
        assert not report.passed
        missed = max(b.post_state_dev for b in report.step_checks[0].branch_checks)
        assert missed > TOLERANCES["post_state"]

    @pytest.mark.parametrize("d", [1e-11, 1e-6, 1e-3])
    def test_verify_plan_judges_a_link_that_moves_an_index_outside_its_window(self, n4_pair, d):
        # Weight d moves from index 1 to index 0 of layout 1, which stays
        # normalized; link 0's window is (1, 2, 3).  The lift builds the
        # plan, and verify_plan measures the move and refuses it beyond
        # its tolerance.
        chain = intermediate_chain(*n4_pair, 3)
        sq = [a * a for a in chain.layouts[1]]
        sq[0], sq[1] = sq[0] + d, sq[1] - d
        moved = (chain.layouts[0], tuple(map(math.sqrt, sq)), chain.layouts[2])
        bad = IntermediateChain(moved, chain.m, chain.windows)
        report = verify_plan(LadderPlan(chain=bad, steps=_lift(bad)))
        assert report.max_deviation == pytest.approx(d, rel=1e-3)
        assert report.passed == (d < TOLERANCES["post_state"])

    def test_a_window_head_off_by_rounding_lifts_and_verifies(self):
        # Layout 1's entry at index 2, the head of link 0's window (2, 3, 4)
        # whose norm is about 1.7e-3, rises by 1e-14, and index 0 gives up
        # the same squared weight.  Each branch lands within EPS_CMP; the
        # same offset in block scale, over the window norm, would not.
        source = validate([0.6, 0.4 - 3e-6, 1.5e-6, 1e-6, 0.5e-6], squared=True)
        target = validate([0.6, 0.4 - 3e-6, 2e-6, 0.7e-6, 0.3e-6], squared=True)
        chain = intermediate_chain(source, target, 3)
        assert chain.windows == ((2, 3, 4), (0, 1, 2))
        layout = list(chain.layouts[1])
        raised = layout[2] + 1e-14
        layout[0] = math.sqrt(layout[0] ** 2 - (raised**2 - layout[2] ** 2))
        layout[2] = raised
        layouts = (chain.layouts[0], tuple(layout), chain.layouts[2])
        nudged = IntermediateChain(layouts, chain.m, chain.windows)
        assert verify_plan(LadderPlan(chain=nudged, steps=_lift(nudged))).passed

    @pytest.mark.parametrize(
        "change",
        [
            lambda br: replace(br, op=DiagonalKraus(br.op.diag[:2])),
            lambda br: replace(br, op=DiagonalKraus(br.op.diag + (0.5,))),
            lambda br: replace(br, correction=(0, 1)),
            lambda br: replace(br, correction=(0, 1, 7)),
        ],
        ids=["operator-short", "operator-long", "correction-short", "correction-out-of-range"],
    )
    def test_a_malformed_block_branch_is_refused_by_name(self, n4_pair, change):
        # Link 0 of the README pair's chain, its block step as _lift solves
        # it, with branch 1 changed.
        chain = intermediate_chain(*n4_pair, 3)
        block, norm = _window_decompose(chain.layouts[0], chain.windows[0])
        tail = sorted((chain.layouts[1][i] for i in chain.windows[0]), reverse=True)[1:]
        step = ladder._solve_block(block, choose_omega(block, tail, norm))
        assert embed_step(step, chain, 0) == plan_full(*n4_pair).steps[0]
        bad = replace(step, branches=(step.branches[0], change(step.branches[1]), step.branches[2]))
        with pytest.raises(IndexRangeInvalid, match="^block branch 1: operator and correction"):
            embed_step(bad, chain, 0)

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
            plan = LadderPlan(chain=chain, steps=_lift(chain))
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
@given(n=st.integers(2, 128), m=st.integers(2, 70))
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

    def test_zero_tail_block_steps_on_its_positive_heads(self):
        plan = plan_full(*(validate(x, squared=True) for x in ZERO_TAIL_BLOCK_PAIR))
        step = plan.steps[0]
        assert (step.case_tag, len(step.branches)) == (TWO_OUTCOME, 2)
        assert plan.chain.windows[0] == (1, 2, 3)
        assert plan.chain.layouts[0][3] == plan.chain.layouts[1][3] == 0.0

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

    @pytest.mark.parametrize(
        "pair, calls",
        [
            (([0.6, 0.4], [0.8, 0.2]), 1),
            (([0.5, 0.3, 0.2], [0.7, 0.2, 0.1]), 2),
            (([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05]), 5),
        ],
        ids=["n2", "n3", "n4"],
    )
    @pytest.mark.parametrize("build", [intermediate_chain, greatest_first_chain])
    def test_one_link_chain_majorizes_its_pair_once(self, pair, calls, build, monkeypatch):
        # A chain whose one link is the pair the preamble majorized is not
        # tested again; each link of a longer chain is, and choose_omega
        # tests each block.
        counted = []
        monkeypatch.setattr(ladder, "majorizes", lambda a, b: counted.append(1) or majorizes(a, b))
        source, target = (validate(x, squared=True) for x in pair)
        _plan_full(source, target)
        assert len(counted) == calls
        counted.clear()
        chain = build(source, target, 3)
        assert not isinstance(chain, InfeasibilityCertificate)
        assert len(counted) == (1 if len(source.amps) <= 3 else 3)

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
        for br in plan.steps[-1].branches:
            squares = [a * a for a in post_amps(br, plan.chain.layouts[-2])]
            assert squares == pytest.approx(target.squares, abs=1e-12)

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
    ("dense-24", dense_pair(24), "46c187a4e07a3add10cc3b1e68f39ed9063df6d832abaa03e18c72e172c6fb1b"),
    ("dense-32", dense_pair(32), "b057a2dcf2976a45375a28414a8c7ec26a0faa0f3823426c220ae68cc783cfdb"),
    ("dense-48", dense_pair(48), "740e6d2a36d852166e551da564c2a47b96f18f8dc016c354bb563c6b0296ae70"),
    ("dense-64", dense_pair(64), "54077ca88374817423f0d6548672e52574582de9ebc86b74b68ff80c9ee288d4"),
    ("ties-4", DEGENERATE_PAIRS[0], "280e3129397abfc0358d0183306e82fb49c754e88d082a2650a2cdab4f712758"),
    ("ties-5", DEGENERATE_PAIRS[1], "57a2c7bbd83ee37413cd6004d6a9d289e848a44389dacc07eaf17ae4edacadd4"),
    ("ties-6", DEGENERATE_PAIRS[2], "ff2c56dde7e36c99504b3f5ee9dd41e8e8fee4a8ffbec1dd787c18c70150f24b"),
    ("zero-tail-7", DEGENERATE_PAIRS[3], "b9bc4c033abbec9d0b2bee1d4998a3a2a0ea0a5214bb6b18efa245a22bbc4516"),
    ("tiny-6a", DEGENERATE_PAIRS[4], "87c94f44271b94f28c0ca80d1718e3f3ed717b46bcc9e3ff43a21b232aba47b2"),
    ("tiny-6b", DEGENERATE_PAIRS[5], "f5857f2cc818bd0e6d1a232a6f62578950fda479b7ac0b2c1e7a258000b770ae"),
    (
        "zero-tail-block-4",
        ZERO_TAIL_BLOCK_PAIR,
        "531b5def2fa6d48ed6fe03769b661938150f7ef409ce81f27765175e39eaf491",
    ),
    (
        "readme-n4",
        ([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05]),
        "4e1a3832688c8ff193e9e9675d4e4ff935239d6e9f310e3f1faadd8543717091",
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


def _rebuilt(doc):
    """The plan a plan transcript holds, through the public constructors
    alone: the chain from the square roots of its layouts, its m and its
    windows, and each branch from its diag, prob and correction."""
    c = doc["chain"]
    layouts = tuple(tuple(map(math.sqrt, x)) for x in c["layouts"])
    chain = IntermediateChain(layouts, c["m"], tuple(map(tuple, c["windows"])))
    steps = []
    for s in doc["steps"]:
        branches = tuple(
            OutcomeBranch(DiagonalKraus(tuple(b["diag"])), b["prob"], tuple(b["correction"]))
            for b in s["branches"]
        )
        steps.append(MeasurementStep(branches, s["case"], s["pruned_count"]))
    return LadderPlan(chain=chain, steps=tuple(steps))


def _nudge_prob(doc):
    branch = max(doc["steps"][0]["branches"], key=lambda b: b["prob"])
    branch["prob"] -= 1e-6


def _nudge_diag(doc):
    diag = max(doc["steps"][0]["branches"], key=lambda b: b["prob"])["diag"]
    diag[diag.index(max(diag))] += 1e-6


def _nudge_layout(doc):
    # Moved from the largest other entry, so the layout stays normalized.
    layout = doc["chain"]["layouts"][1]
    j = max(range(1, len(layout)), key=layout.__getitem__)
    layout[0], layout[j] = layout[0] + 1e-6, layout[j] - 1e-6


def _swap_correction(doc):
    # The two indices whose weights after the operator differ the most.
    layout, branch = doc["chain"]["layouts"][0], doc["steps"][0]["branches"][0]
    raw = [d * d * x for d, x in zip(branch["diag"], layout)]
    i, j = raw.index(max(raw)), raw.index(min(raw))
    corr = branch["correction"]
    corr[i], corr[j] = corr[j], corr[i]


@pytest.mark.parametrize("pair", [c[1] for c in PLANNER_DIGESTS], ids=[c[0] for c in PLANNER_DIGESTS])
def test_a_plan_transcript_rebuilds_a_plan_that_verifies(pair):
    # The transcript holds every fact a plan needs: the plan rebuilt from
    # it alone verifies, and one fact changed by 1e-6 does not.
    payload = json.dumps({"source": pair[0], "target": pair[1]})
    stdout = io.StringIO()
    argv = ["plan", "--squared", "--format", "machine"]
    assert cli_main(argv, io.StringIO(payload), stdout, io.StringIO()) == 0
    text = stdout.getvalue()
    assert json.loads(text)["verification"]["passed"]
    assert verify_plan(_rebuilt(json.loads(text))).passed
    for tamper in (_nudge_prob, _nudge_diag, _nudge_layout, _swap_correction):
        doc = json.loads(text)
        tamper(doc)
        assert not verify_plan(_rebuilt(doc)).passed, tamper.__name__


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
    assert hashlib.sha256(text.encode()).hexdigest() == "95c4358e1bb76cf4c3d8612b4d20d3ec6c6d291afaff64d57f30039b7d578fc6"


def test_per_index_fallback_plans_pinned_trials():
    # Trials 94 and 175 fail completeness in solve3's CASE_II and trial 353
    # in solve2 with the closed forms; the per-index forms plan them.
    rng = np.random.default_rng(12)
    pairs = [degenerate_fuzz_pair(rng, trial, PIN_FLOORS[trial % 4]) for trial in range(354)]
    for trial in (94, 175, 353):
        source, target = (validate(x, squared=True, autosort=True) for x in pairs[trial])
        assert verify_plan(_plan_full(source, target)).passed, trial


def test_other_case_fallback_plans_pinned_trials():
    # Each of these trials has a block that solve3 routes to one case, which
    # fails its own check; the other case plans it.
    rng = np.random.default_rng(12)
    pairs = [degenerate_fuzz_pair(rng, trial, PIN_FLOORS[trial % 4]) for trial in range(508)]
    for trial in (79, 243, 267, 279, 319, 479, 507):
        source, target = (validate(x, squared=True, autosort=True) for x in pairs[trial])
        assert verify_plan(_plan_full(source, target)).passed, trial


def test_every_ladder_refusal_on_the_pinned_corpus_is_exactly_infeasible():
    # plan_full refuses within tolerances; in exact arithmetic over the same
    # float squares the smallest-first ladder must not exist either, so a
    # refusal is never a rounding artefact of a feasible ladder.
    assert exact_ladder_feasible([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05])
    assert not exact_ladder_feasible([0.25] * 4, [0.3, 0.3, 0.3, 0.1])
    rng = np.random.default_rng(12)
    kinds = Counter()
    for trial in range(512):
        pair = degenerate_fuzz_pair(rng, trial, PIN_FLOORS[trial % 4])
        source, target = (validate(x, squared=True, autosort=True) for x in pair)
        try:
            _plan_full(source, target)
        except LadderInfeasible as exc:
            cert = exc.certificate
            kinds[cert.kind] += 1
            assert not exact_ladder_feasible(source.squares, target.squares), trial
            if cert.kind == "link_not_majorized":
                # The certificate's margin is the exact one, up to rounding.
                exact = exact_link_margin(
                    source.squares, target.squares, cert.step_index - 1, cert.failing_k
                )
                assert exact < 0, trial
                assert abs(exact - Fraction(cert.margin)) <= 1e-15, trial
        except LoccLadderError:
            pass
    assert kinds == {"link_not_majorized": 170, "block_not_majorized": 2}


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
