import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from locc_ladder.sampling import mix_down, random_spectrum

from helpers import fsum_majorized, fsum_tail_margins


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
