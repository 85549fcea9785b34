import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locc_ladder import (
    DimensionMismatch,
    DimensionTooSmall,
    NegativeEntry,
    NotNormalized,
    NotSorted,
    SchmidtVector,
    effective_rank,
    majorizes,
    validate,
)
from locc_ladder.schmidt import EPS_CMP, EPS_ZERO, amps_agree, states_equal

from helpers import (
    float_bits,
    fsum_majorized,
    fsum_tail_margins,
    literal_majorization,
    literal_schmidt_squares,
    literal_states_equal,
    outcome,
)
from sampling import mix_down, random_spectrum


def spectra(n=None, min_n=2, max_n=8):
    def build(raw):
        total = sum(raw)
        lam = sorted((x / total for x in raw), reverse=True)
        return validate(lam, squared=True)

    size = st.integers(min_n, max_n) if n is None else st.just(n)
    return size.flatmap(
        lambda k: st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=k, max_size=k
        )
    ).map(build)


class TestValidate:
    def test_squared_interpretation(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        assert v.n == 3
        assert v.amps == (0.5**0.5, 0.3**0.5, 0.2**0.5)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmall):
            validate([1.0], squared=True)

    def test_not_sorted_without_autosort(self):
        with pytest.raises(NotSorted):
            validate([0.3, 0.5, 0.2], squared=True, autosort=False)

    def test_autosort(self):
        v = validate([0.3, 0.5, 0.2], squared=True, autosort=True)
        assert v.squares == pytest.approx((0.5, 0.3, 0.2), abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_entries(self, bad):
        with pytest.raises(NegativeEntry):
            validate([0.9, bad], squared=True)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([0.9, -0.1, math.nan], "negative entry -0.1 at index 1"),
            ([0.9, math.nan, -0.1], "non-finite entry nan at index 1"),
            ([0.9, 0.1, -math.inf], "non-finite entry -inf at index 2"),
            ([-1.0, 2.0], "negative entry -1.0 at index 0"),
        ],
    )
    def test_bad_entries_name_the_first(self, raw, message):
        with pytest.raises(NegativeEntry, match=f"^{message}$"):
            validate(raw, squared=True)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([10**400, 0], "an entry is too large for a float"),
            ([0.6, Fraction(10**400)], "an entry is too large for a float"),
            (["0.6", "0.4"], "entry '0.6' at index 0 is not a real number"),
            ([True, False], "entry True at index 0 is not a real number"),
            ([0.6, np.bool_(True)], "entry np.True_ at index 1 is not a real number"),
            ([0.6, None], "entry None at index 1 is not a real number"),
            ([0.6, 0.4j], "entry 0.4j at index 1 is not a real number"),
        ],
    )
    def test_entries_that_are_not_real_numbers(self, raw, message):
        # Input problems are ValueErrors (errors.py), so a float() that would
        # overflow, read a str or a bool as a number, or raise TypeError is
        # refused as NegativeEntry, naming the first bad entry.
        with pytest.raises(NegativeEntry, match=f"^{re.escape(message)}$"):
            validate(raw, squared=True)

    @pytest.mark.parametrize(
        "raw, floats",
        [
            ([1, 0], [1.0, 0.0]),
            ([np.int64(1), 0.0], [1.0, 0.0]),
            ([np.float32(0.5), Fraction(1, 2)], [0.5, 0.5]),
            (iter([0.5, 0.5]), [0.5, 0.5]),
        ],
        ids=["ints", "numpy-int", "float32-and-fraction", "iterator"],
    )
    def test_real_numbers_of_any_type_are_read(self, raw, floats):
        assert validate(raw, squared=True) == validate(floats, squared=True)

    def test_negative_zero_is_an_entry_of_zero(self):
        assert validate([1.0, -0.0], squared=True).squares == (1.0, 0.0)

    def test_drift_above_tolerance(self):
        with pytest.raises(NotNormalized):
            validate([0.5, 0.3, 0.2 + 1e-6], squared=True)

    def test_small_drift_renormalized(self):
        v = validate([0.5, 0.3, 0.2 + 1e-10], squared=True)
        assert abs(sum(v.squares) - 1.0) < 1e-13

    def test_amplitude_input(self):
        v = validate([math.sqrt(0.5), math.sqrt(0.5)])
        assert v.squares == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_direct_construction_checks_invariants(self):
        with pytest.raises(NotSorted):
            SchmidtVector((0.1, 0.9))
        with pytest.raises(NotNormalized):
            SchmidtVector((0.9, 0.1))


def _third(second):
    """The third amplitude of (0.6, second, third), normalised."""
    return (1 - 0.36 - second * second) ** 0.5


# (id, amplitudes, outcome): each edge of SchmidtVector's checks; outcome is
# True when accepted, else the error it raises.
SCHMIDT_EDGES = [
    ("nan-first", (math.nan, 0.6, 0.8), NegativeEntry),
    ("nan-after-negative", (1.0, -0.5, math.nan), NegativeEntry),
    ("inf", (math.inf, 0.0), NegativeEntry),
    ("minus-inf", (1.0, -math.inf), NegativeEntry),
    ("minus-1e-300", (1.0, -1e-300), NegativeEntry),
    ("minus-zero", (1.0, -0.0), True),
    ("rise-of-eps", (0.6, 0.6 + EPS_CMP, _third(0.6 + EPS_CMP)), True),
    ("rise-of-2eps", (0.6, 0.6 + 2 * EPS_CMP, _third(0.6 + 2 * EPS_CMP)), NotSorted),
    ("drift-0.9e-9", ((0.5 + 0.9e-9) ** 0.5, 0.5**0.5), True),
    ("drift-1.1e-9", ((0.5 + 1.1e-9) ** 0.5, 0.5**0.5), NotNormalized),
    ("length-1", (1.0,), DimensionTooSmall),
    ("length-0", (), DimensionTooSmall),
    ("strings", ("b", "a"), NegativeEntry),
    ("fractions", (Fraction(4, 5), Fraction(3, 5)), True),
    ("int-beyond-float", (10**400, 0), NegativeEntry),
    ("fraction-beyond-float", (Fraction(10**400), 0), NegativeEntry),
    ("bools", (True, False), NegativeEntry),
    ("bool-after-float", (1.0, False), NegativeEntry),
    ("numpy-bool", (np.bool_(True), 0.0), NegativeEntry),
    ("none", (1.0, None), NegativeEntry),
    ("complex", (0.8 + 0j, 0.6), NegativeEntry),
]


def _squares(amps):
    return SchmidtVector(amps).squares


def _tied_amps(counts):
    """Amplitudes of the squared weights counts, normalised and sorted:
    equal counts give tied amplitudes."""
    total = sum(counts)
    return [(c / total) ** 0.5 for c in sorted(counts, reverse=True)]


class TestChecksEqualTheLiteralLoops:
    """SchmidtVector, majorizes and the predicates against the per-entry
    loops in helpers: the same result bit for bit, or the same exception
    type and message."""

    @pytest.mark.parametrize(
        "amps, expected", [c[1:] for c in SCHMIDT_EDGES], ids=[c[0] for c in SCHMIDT_EDGES]
    )
    def test_edges(self, amps, expected):
        want = outcome(literal_schmidt_squares, amps)
        assert outcome(_squares, amps) == want
        if expected is True:
            assert float_bits(_squares(amps)) == float_bits(want)
        else:
            assert want[0] is expected and issubclass(expected, ValueError)

    @given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 1.0, EPS_CMP]), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, amps):
        assert outcome(_squares, tuple(amps)) == outcome(literal_schmidt_squares, tuple(amps))

    @given(
        st.lists(st.integers(1, 3), min_size=2, max_size=7),
        st.integers(0, 6),
        st.integers(-3, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_ties_nudged_by_multiples_of_eps(self, counts, i, k):
        amps = _tied_amps(counts)
        amps[i % len(amps)] += k * EPS_CMP
        want = outcome(literal_schmidt_squares, tuple(amps))
        got = outcome(_squares, tuple(amps))
        assert got == want
        if not isinstance(want[0], type):
            assert float_bits(got) == float_bits(want)

    @given(
        st.integers(2, 8).flatmap(lambda n: st.tuples(spectra(n), spectra(n))),
        st.integers(0, 7),
        st.integers(-40, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_margins_and_predicates(self, pair, i, k):
        v, u = pair
        amps = list(v.amps)
        amps[i % v.n] += k * 1e-13
        w = outcome(SchmidtVector, tuple(amps))
        assume(isinstance(w, SchmidtVector))
        assert float_bits(v.squares) == float_bits(literal_schmidt_squares(v.amps))
        for a, b in ((v, w), (w, v), (v, u), (u, v), (v, v)):
            report = majorizes(a, b)
            margins, failing_k = literal_majorization(a.squares, b.squares)
            assert float_bits(report.tail_margins) == float_bits(margins)
            assert report.failing_k == failing_k
            assert report.holds == (failing_k is None)
            assert states_equal(a, b) == literal_states_equal(a.squares, b.squares)

    @pytest.mark.parametrize("tail", [0.0, EPS_ZERO / 2, EPS_ZERO, 2 * EPS_ZERO, 1e-6])
    def test_source_grade(self, tail):
        v = SchmidtVector(((1 - tail * tail) ** 0.5, tail))
        assert v.is_source_grade() == all(a > EPS_ZERO for a in v.amps)

    def test_squares_stay_out_of_eq_repr_and_hash(self):
        v = validate([0.5, 0.3, 0.2], squared=True)
        w = SchmidtVector(v.amps)
        assert v.squares is v.squares
        assert v == w and hash(v) == hash(w)
        assert repr(v) == f"SchmidtVector(amps={v.amps!r})"


@pytest.mark.parametrize(
    "a, b, agree",
    [
        ((0.6, 0.8), (0.6, 0.8), True),
        ((0.6, 0.8 + EPS_CMP / 2), (0.6, 0.8), True),
        ((0.6, 0.8 + 2 * EPS_CMP), (0.6, 0.8), False),
        ((0.6, 0.8, 0.1), (0.6, 0.8), True),
        ((math.nan, 0.5), (0.5, 0.5), False),
        ((0.5, 0.5), (0.5, math.nan), False),
        ((math.nan,), (math.nan,), False),
        ((math.inf, 0.5), (math.inf, 0.5), False),
    ],
)
def test_amps_agree_and_nan_disagrees(a, b, agree):
    assert amps_agree(a, b) is agree


class TestMajorizes:
    def test_holding_fixture(self):
        src = validate([0.4, 0.3, 0.2, 0.1], squared=True)
        tgt = validate([0.55, 0.25, 0.15, 0.05], squared=True)
        rep = majorizes(src, tgt)
        assert rep.holds and rep.failing_k is None
        assert rep.tail_margins == pytest.approx((0.0, 0.15, 0.1, 0.05), abs=1e-12)

    def test_failing_fixture(self):
        src = validate([0.5, 0.3, 0.2], squared=True)
        tgt = validate([0.45, 0.45, 0.1], squared=True)
        rep = majorizes(src, tgt)
        assert not rep.holds
        assert rep.failing_k == 2
        assert rep.tail_margins[1] == pytest.approx(-0.05, abs=1e-12)

    def test_reflexive(self):
        v = validate([0.6, 0.3, 0.1], squared=True)
        rep = majorizes(v, v)
        assert rep.holds
        assert all(abs(m) < 1e-15 for m in rep.tail_margins)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            majorizes(
                validate([0.5, 0.5], squared=True),
                validate([0.5, 0.3, 0.2], squared=True),
            )

    def test_agrees_with_fsum_oracle_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 17))
            a = random_spectrum(rng, n)
            b = random_spectrum(rng, n)
            src = validate(a.tolist(), squared=True)
            tgt = validate(b.tolist(), squared=True)
            assert majorizes(src, tgt).holds == fsum_majorized(
                src.squares, tgt.squares
            )

    @given(pair=spectra().flatmap(lambda t: st.tuples(st.just(t), st.integers(0, 2**31))))
    @settings(max_examples=150, deadline=None)
    def test_mixdown_always_feasible(self, pair):
        target, seed = pair
        rng = np.random.default_rng(seed)
        source_sq = mix_down(rng, np.array(target.squares), 2 * target.n)
        source = validate(source_sq.tolist(), squared=True, autosort=True)
        rep = majorizes(source, target)
        assert rep.holds
        assert all(m >= -1e-12 for m in rep.tail_margins)
        assert abs(rep.tail_margins[0]) <= 1e-12

    def test_antisymmetry(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            src = validate(random_spectrum(rng, n).tolist(), squared=True)
            tgt_sq = mix_down(rng, np.array(src.squares), n)
            tgt = validate(tgt_sq.tolist(), squared=True, autosort=True)
            if majorizes(src, tgt).holds and majorizes(tgt, src).holds:
                assert all(
                    abs(a - b) < 1e-10
                    for a, b in zip(src.squares, tgt.squares)
                )

    def test_transitivity(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 10))
            c = validate(random_spectrum(rng, n).tolist(), squared=True)
            b_sq = mix_down(rng, np.array(c.squares), n)
            b = validate(b_sq.tolist(), squared=True, autosort=True)
            a_sq = mix_down(rng, b_sq, n)
            a = validate(a_sq.tolist(), squared=True, autosort=True)
            assert majorizes(a, b).holds
            assert majorizes(b, c).holds
            assert majorizes(a, c).holds


class TestEffectiveRank:
    def test_all_positive(self):
        assert effective_rank(validate([0.7, 0.2, 0.1], squared=True)) == 3

    def test_one_zero(self):
        v = validate([0.7, 0.0, 0.3], squared=True, autosort=True)
        assert effective_rank(v) == 2

    def test_product_state(self):
        assert effective_rank(validate([1.0, 0.0], squared=True)) == 1


class TestSerializeRoundTrip:
    @given(v=spectra())
    @settings(max_examples=100, deadline=None)
    def test_validate_after_serialize_is_identity(self, v):
        recovered = validate(json.loads(json.dumps(list(v.amps))))
        assert recovered.amps == v.amps

    def test_fixture_roundtrip_bitwise(self):
        v = validate([1 / 3, 1 / 3, 1 / 3], squared=True)
        assert validate(list(v.amps)).amps == v.amps


def test_tail_margin_oracle_against_manual_case():
    # 3-dim failing pair computed by hand: margins (0, -0.05, 0.1).
    margins = fsum_tail_margins([0.5, 0.3, 0.2], [0.45, 0.45, 0.1])
    assert margins == pytest.approx([0.0, -0.05, 0.1], abs=1e-15)
