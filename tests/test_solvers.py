import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_ladder import (
    CASE_I,
    CASE_II,
    EPS_COMPLETE,
    TRIVIAL,
    TWO_OUTCOME,
    DiagonalKraus,
    DimensionMismatch,
    LoccLadderError,
    NegativeEntry,
    NotMajorized,
    SchmidtVector,
    SolverInvariantViolated,
    SourceHasZero,
    plan_full,
    solve2,
    solve3,
    validate,
)
from locc_ladder import ladder
from locc_ladder.schmidt import EPS_CMP
from locc_ladder.solvers import _clamp_prob, _cond, _solve3_case, completeness_defect

from helpers import (
    DEGENERATE_PAIRS,
    dense_pair,
    float_bits,
    literal_completeness_defect,
    literal_kraus_check,
    outcome,
    post_amps,
)
from sampling import random_feasible_pair


def branch_post_dev(step, source, target):
    """Recompute each branch post-state from scratch; worst amplitude error."""
    return max(
        abs(g - w)
        for br in step.branches
        for g, w in zip(post_amps(br, source.amps), target.amps)
    )


class TestSolve3Fixtures:
    def test_case1_probabilities(self, case1_pair):
        step = solve3(*case1_pair)
        assert step.case_tag == CASE_I
        probs = [br.prob for br in step.branches]
        assert probs == pytest.approx([19 / 30, 1 / 5, 1 / 6], abs=1e-12)
        assert abs(sum(probs) - 1.0) < 1e-12

    def test_case1_corrections(self, case1_pair):
        step = solve3(*case1_pair)
        assert [br.correction for br in step.branches] == [
            (0, 1, 2),
            (1, 0, 2),
            (2, 1, 0),
        ]

    def test_case1_operator_entries(self, case1_pair):
        source, target = case1_pair
        step = solve3(source, target)
        a1, b1, c1 = source.amps
        a2, b2, c2 = target.amps
        m2 = step.branches[1]
        expect = [x * math.sqrt(m2.prob) for x in (b2 / a1, a2 / b1, c2 / c1)]
        assert list(m2.op.diag) == pytest.approx(expect, abs=1e-14)

    def test_case1_post_states(self, case1_pair):
        source, target = case1_pair
        step = solve3(source, target)
        assert branch_post_dev(step, source, target) < 1e-12

    def test_case2_probabilities(self, case2_pair):
        step = solve3(*case2_pair)
        assert step.case_tag == CASE_II
        probs = [br.prob for br in step.branches]
        assert probs == pytest.approx([7 / 12, 1 / 4, 1 / 6], abs=1e-12)

    def test_case2_corrections(self, case2_pair):
        step = solve3(*case2_pair)
        assert [br.correction for br in step.branches] == [
            (0, 1, 2),
            (2, 1, 0),
            (0, 2, 1),
        ]

    def test_trivial(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        step = solve3(v, v)
        assert step.case_tag == TRIVIAL
        assert len(step.branches) == 1
        assert step.branches[0].prob == 1.0
        assert step.branches[0].op.diag == (1.0, 1.0, 1.0)

    def test_middle_tie_routes_to_case1_and_prunes(self):
        source = validate([0.5, 0.3, 0.2], squared=True)
        target = validate([0.6, 0.3, 0.1], squared=True)
        step = solve3(source, target)
        assert step.case_tag == CASE_I
        assert len(step.branches) == 2
        assert step.pruned_count == 1

    def test_case_boundary_probability_multisets_agree(self):
        # With equal middle coefficients both case constructions must give
        # the same surviving probabilities; the second case is evaluated
        # from its published formulas directly.
        source = validate([0.5, 0.3, 0.2], squared=True)
        target = validate([0.6, 0.3, 0.1], squared=True)
        step = solve3(source, target)
        got = sorted(br.prob for br in step.branches)
        s1, sb1, sc1 = source.squares
        s2, sb2, sc2 = target.squares
        q2 = (s2 - s1) / (s2 - sc2)
        q3 = (sb2 - sb1) / (sb2 - sc2)  # 0 at the boundary
        q1 = s1 / s2 - (sc2 / s2) * q2 - q3
        expect = sorted(q for q in (q1, q2, q3) if q > 1e-12)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_rounded_middle_tie_prunes_instead_of_raising(self):
        # A block from the ladder of an n=32 pair (tests/test_ladder.py):
        # the middle squares are equal but for rounding carried in from the
        # chain, so p2 = (sb1 - sb2) / (s2 - sb2) comes out near -2.7e-12.
        source = validate(
            [0.3543307086612363, 0.33070866141738875, 0.31496062992137536],
            squared=True,
        )
        target = validate(
            [0.36220472440915596, 0.3307086614174747, 0.3070866141733693],
            squared=True,
        )
        step = solve3(source, target)
        assert step.case_tag == CASE_I
        assert step.pruned_count == 1
        assert literal_completeness_defect(step) < 1e-12
        assert branch_post_dev(step, source, target) < 1e-12

    def test_failing_routed_case_falls_back_to_the_other(self):
        # A block of degenerate fuzz trial 24 (n = 15): its middle squares
        # shrink within EPS_CMP, so it routes to CASE_I, whose closed form
        # misses completeness; CASE_II builds it.
        source = SchmidtVector((0.6018644829557946, 0.5720516545513323, 0.557239668976857))
        target = SchmidtVector((0.6018644829634296, 0.5720516545517493, 0.5572396689681824))
        with pytest.raises(SolverInvariantViolated, match="completeness"):
            _solve3_case(source, target, CASE_I)
        step = solve3(source, target)
        assert step.case_tag == CASE_II
        assert completeness_defect(step) <= EPS_COMPLETE
        assert branch_post_dev(step, source, target) < 1e-12

    def test_other_case_with_vanishing_denominator_is_not_trivial(self):
        # Degenerate fuzz trial 1622 (n = 3): CASE_I fails completeness, and
        # CASE_II would divide by sb2 - sc2 = 0.  The states differ by 0.47
        # in amplitude, so the fallback must not take the trivial step that
        # the routed case takes there: the routed case's error stands.
        source = SchmidtVector((0.8834120699923104, 0.46859696391558214, 9.999999999984999e-07))
        target = SchmidtVector((1.0, 0.0, 0.0))
        with pytest.raises(SolverInvariantViolated, match="CASE_II denominator vanishes"):
            _solve3_case(source, target, CASE_II)
        with pytest.raises(SolverInvariantViolated, match="completeness sum deviates"):
            solve3(source, target)

    def test_negative_probability_bound_scales_with_conditioning(self):
        assert _cond(0.33, 0.32, 0.05) == pytest.approx(13.0)
        assert _cond(0.1, 0.05, 0.5) == 1.0
        assert _clamp_prob(-0.9e-12, "p") == 0.0
        with pytest.raises(SolverInvariantViolated, match="p = -2e-12"):
            _clamp_prob(-2e-12, "p")
        assert _clamp_prob(-2e-12, "p", cond=3.0) == 0.0
        with pytest.raises(SolverInvariantViolated):
            _clamp_prob(-4e-12, "p", cond=3.0)

    def test_rank_dropping_target(self):
        source = validate([0.5, 0.3, 0.2], squared=True)
        target = validate([0.8, 0.2, 0.0], squared=True)
        step = solve3(source, target)
        assert literal_completeness_defect(step) < 1e-12
        assert branch_post_dev(step, source, target) < 1e-12

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            solve3(
                validate([0.5, 0.3, 0.2], squared=True),
                validate([0.45, 0.45, 0.1], squared=True),
            )

    def test_source_with_zero(self):
        src = validate([0.6, 0.4, 0.0], squared=True)
        tgt = validate([0.7, 0.3, 0.0], squared=True)
        with pytest.raises(SourceHasZero):
            solve3(src, tgt)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve3(
                validate([0.5, 0.5], squared=True),
                validate([0.5, 0.5], squared=True),
            )


@pytest.mark.parametrize("solve, n", [(solve2, 2), (solve3, 3)])
def test_both_solvers_check_a_pair_in_one_order(solve, n):
    # Dimension, then majorization, then a vanishing source coefficient, and
    # only then equal states, which take the trivial step.
    flat = validate([1.0 / n] * n, squared=True)
    product = validate([1.0] + [0.0] * (n - 1), squared=True)
    wide = validate([0.25] * 4, squared=True)
    with pytest.raises(DimensionMismatch, match=f"^solve{n} requires dimension {n}$"):
        solve(wide, wide)
    with pytest.raises(NotMajorized):
        solve(product, flat)
    with pytest.raises(SourceHasZero):
        solve(product, product)
    assert solve(flat, flat).case_tag == TRIVIAL


class TestSolve2Fixtures:
    def test_balanced_to_skewed(self):
        step = solve2(
            validate([0.5, 0.5], squared=True),
            validate([0.6875, 0.3125], squared=True),
        )
        assert step.case_tag == TWO_OUTCOME
        assert [br.prob for br in step.branches] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert step.branches[1].correction == (1, 0)

    def test_balanced_to_product(self):
        source = validate([0.5, 0.5], squared=True)
        target = validate([1.0, 0.0], squared=True)
        step = solve2(source, target)
        assert [br.prob for br in step.branches] == pytest.approx([0.5, 0.5], abs=1e-12)
        for br in step.branches:
            squares = [a * a for a in post_amps(br, source.amps)]
            assert squares == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_trivial(self):
        v = validate([0.7, 0.3], squared=True)
        step = solve2(v, v)
        assert step.case_tag == TRIVIAL
        assert step.branches[0].prob == 1.0

    def test_maximally_entangled_target_is_trivial(self):
        v = validate([0.5, 0.5], squared=True)
        step = solve2(v, validate([0.5, 0.5], squared=True))
        assert step.case_tag == TRIVIAL

    def test_not_majorized(self):
        with pytest.raises(NotMajorized):
            solve2(
                validate([0.9, 0.1], squared=True),
                validate([0.8, 0.2], squared=True),
            )


class TestSolverProperties:
    def test_random_feasible_3dim(self, rng):
        for trial in range(2000):
            alpha = (0.5, 1.0, 3.0)[trial % 3]
            source, target = random_feasible_pair(rng, 3, alpha=alpha)
            step = solve3(source, target)
            assert literal_completeness_defect(step) < 1e-12
            assert abs(sum(br.prob for br in step.branches) - 1.0) < 1e-12
            assert branch_post_dev(step, source, target) < 1e-10
            for br in step.branches:
                assert -1e-12 <= br.prob <= 1 + 1e-12

    def test_random_feasible_2dim(self, rng):
        for _ in range(1000):
            source, target = random_feasible_pair(rng, 2)
            step = solve2(source, target)
            assert literal_completeness_defect(step) < 1e-12
            assert branch_post_dev(step, source, target) < 1e-10

    def test_case_orderings_hold(self, rng):
        # The case selection must imply the documented coefficient chains.
        for _ in range(500):
            source, target = random_feasible_pair(rng, 3)
            step = solve3(source, target)
            a1, b1, c1 = source.amps
            a2, b2, c2 = target.amps
            eps = 1e-12
            if step.case_tag == CASE_I:
                assert a2 >= a1 - eps >= b1 - 2 * eps >= b2 - 3 * eps >= c2 - 4 * eps
            elif step.case_tag == CASE_II:
                assert a2 >= b2 - eps >= b1 - 2 * eps >= c1 - 3 * eps >= c2 - 4 * eps


# (id, diagonal, accepted): each edge of DiagonalKraus's check, the entry rule.
KRAUS_EDGES = [
    ("nan", (0.5, math.nan), False),
    ("nan-after-negative", (1.0, -0.5, math.nan), False),
    ("inf", (math.inf,), False),
    ("minus-inf", (1.0, -math.inf), False),
    ("minus-1e-300", (-1e-300,), False),
    ("minus-zero", (1.0, -0.0), True),
    ("empty", (), True),
    ("strings", ("a",), False),
    ("string-after-float", ("a", 1.0), False),
    ("int-beyond-float", (10**400, 0), False),
    ("bool", (True, 1.0), False),
    ("bool-after-float", (1.0, False), False),
    ("none", (1.0, None), False),
    ("numpy-float", (np.float64(0.5), 1.0), True),
    ("fraction", (Fraction(1, 2), 1.0), True),
]


class TestChecksEqualTheLiteralLoops:
    @pytest.mark.parametrize(
        "diag, accepted", [c[1:] for c in KRAUS_EDGES], ids=[c[0] for c in KRAUS_EDGES]
    )
    def test_kraus_edges(self, diag, accepted):
        want = outcome(literal_kraus_check, diag)
        assert (want is None) == accepted
        got = outcome(DiagonalKraus, diag)
        assert isinstance(got, DiagonalKraus) if accepted else got == want
        assert accepted or want[0] is NegativeEntry

    @given(
        st.integers(1, 4).flatmap(
            lambda branches: st.lists(
                st.tuples(*[st.floats(0.0, 2.0)] * branches), min_size=1, max_size=4
            )
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_completeness_defect_with_repeated_columns(self, pool, data):
        columns = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        step = SimpleNamespace(
            branches=[SimpleNamespace(op=DiagonalKraus(d)) for d in zip(*columns)]
        )
        got, want = completeness_defect(step), literal_completeness_defect(step)
        assert float_bits([got]) == float_bits([want])

    @pytest.mark.parametrize(
        "pair", [dense_pair(24), *DEGENERATE_PAIRS], ids=["dense-24", *(f"degenerate-{i}" for i in range(6))]
    )
    def test_completeness_defect_on_planned_steps(self, pair):
        plan = plan_full(*(validate(x, squared=True) for x in pair))
        for step in plan.steps:
            got, want = completeness_defect(step), literal_completeness_defect(step)
            assert float_bits([got]) == float_bits([want])


def _exact_probs(case_tag, source, target):
    """Each variant of a case's closed forms, evaluated exactly on the
    solver's own float squares: per variant, {correction: (probability
    clamped to [0, 1], the _cond bound _clamp_prob applies to it)}.
    CASE_II and TWO_OUTCOME have two, for their per-index p2 retry."""
    fs, ft = source.squares, target.squares
    s, t = [tuple(map(Fraction, x)) for x in (fs, ft)]

    def clamp(p):
        return min(max(p, Fraction(0)), Fraction(1))

    if case_tag == TWO_OUTCOME:
        (s1, sb1), (s2, sb2) = s, t
        (f1, fb1), (f2, fb2) = fs, ft
        p1 = clamp((s1 - sb2) / (s2 - sb2)), _cond(f1, fb2, f2 - fb2)
        retries = [
            ((s2 - s1) / (s2 - sb2), _cond(f2, f1, f2 - fb2)),
            ((sb1 - sb2) / (s2 - sb2), _cond(fb1, fb2, f2 - fb2)),
        ]
        return [{(0, 1): p1, (1, 0): (clamp(p2), c2)} for p2, c2 in retries]
    (s1, sb1, sc1), (s2, sb2, sc2) = s, t
    (f1, fb1, fc1), (f2, fb2, fc2) = fs, ft
    if case_tag == CASE_I:
        p2, c2 = clamp((sb1 - sb2) / (s2 - sb2)), _cond(fb1, fb2, f2 - fb2)
        p3, c3 = clamp((sc1 - sc2) / (s2 - sc2)), _cond(fc1, fc2, f2 - fc2)
        p1 = clamp(s1 / s2 - (sb2 / s2) * p2 - (sc2 / s2) * p3)
        return [{(0, 1, 2): (p1, 1 + c2 + c3), (1, 0, 2): (p2, c2), (2, 1, 0): (p3, c3)}]
    p3, c3 = clamp((sb2 - sb1) / (sb2 - sc2)), _cond(fb2, fb1, fb2 - fc2)
    variants = []
    for p2, c2 in [
        ((s2 - s1) / (s2 - sc2), _cond(f2, f1, f2 - fc2)),
        (((sc1 - sc2) + (sb1 - sb2)) / (s2 - sc2), _cond(fb1 + fc1, fb2 + fc2, f2 - fc2)),
    ]:
        p2 = clamp(p2)
        p1 = clamp(s1 / s2 - (sc2 / s2) * p2 - p3)
        variants.append({(0, 1, 2): (p1, 1 + c2 + c3), (2, 1, 0): (p2, c2), (0, 2, 1): (p3, c3)})
    return variants


def test_closed_form_probabilities_are_within_their_bound_of_the_exact_values(monkeypatch):
    """Every solve3 and solve2 branch that planning random feasible pairs
    builds has a probability within EPS_CMP times its formula's conditioning
    bound of that formula's exact value on the same float squares: the
    bound _clamp_prob refuses a negative probability by."""
    built = []
    for name in ("solve2", "solve3"):
        solve = getattr(ladder, name)

        def recording(source, target, solve=solve):
            step = solve(source, target)
            built.append((source, target, step))
            return step

        monkeypatch.setattr(ladder, name, recording)
    rng = np.random.default_rng(20261022)
    for i in range(600):
        try:
            plan_full(*random_feasible_pair(rng, 3 + i % 14))
        except LoccLadderError:
            pass
    checked = 0
    for source, target, step in built:
        if step.case_tag == TRIVIAL:
            continue
        # A step may come from either of its case's p2 variants.
        assert any(
            all(
                abs(Fraction(br.prob) - exact[br.correction][0]) <= EPS_CMP * exact[br.correction][1]
                for br in step.branches
            )
            for exact in _exact_probs(step.case_tag, source, target)
        ), (step.case_tag, source.squares, target.squares)
        checked += len(step.branches)
    assert checked > 1000
