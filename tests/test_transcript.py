import json
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locc_ladder import (
    DimensionMismatch,
    ProblemSpec,
    Transcript,
    greatest_first_chain,
    load_schema,
    majorizes,
    plan_full,
    sample_trajectories,
    validate,
    verify_plan,
)
from locc_ladder import transcript
from locc_ladder.errors import ValidationError
from locc_ladder.transcript import (
    certificate_section,
    chain_section,
    frequencies_section,
    majorization_section,
    steps_section,
    verification_section,
)


def plan_transcript(n4_pair):
    source, target = n4_pair
    spec = ProblemSpec(
        source=[0.4, 0.3, 0.2, 0.1],
        target=[0.55, 0.25, 0.15, 0.05],
        squared=True,
    )
    plan = plan_full(source, target)
    return Transcript(
        command="plan",
        problem=spec.echo(),
        majorization=majorization_section(majorizes(source, target)),
        chain=chain_section(plan.chain),
        steps=steps_section(plan),
        verification=verification_section(verify_plan(plan)),
    )


def simulate_transcript(n4_pair, shots=200, seed=11):
    t = plan_transcript(n4_pair)
    plan = plan_full(*n4_pair)
    freq = sample_trajectories(plan, shots, seed)
    return Transcript(
        command="simulate",
        problem=t.problem,
        majorization=t.majorization,
        chain=t.chain,
        steps=t.steps,
        verification=t.verification,
        seed=seed,
        shots=shots,
        frequencies=frequencies_section(freq),
    )


class TestProblemSpec:
    def test_parse(self):
        spec = ProblemSpec(source=[0.5, 0.5], target=[1.0, 0.0], squared=True)
        source, target = spec.parse()
        assert source.squares == pytest.approx((0.5, 0.5), abs=1e-15)
        assert target.squares == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_dimension_mismatch(self):
        spec = ProblemSpec(source=[0.5, 0.5], target=[0.5, 0.3, 0.2], squared=True)
        with pytest.raises(DimensionMismatch):
            spec.parse()

    def test_payload_flags_combine_with_cli_flags(self):
        payload = {"source": [0.5, 0.5], "target": [1.0, 0.0], "squared": True}
        spec = ProblemSpec.from_payload(payload)
        assert spec.squared and not spec.autosort
        spec = ProblemSpec.from_payload(payload, autosort=True)
        assert spec.squared and spec.autosort

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"source": [0.5, 0.5]},
            {"source": [], "target": [1.0]},
            {"source": [0.5, 0.5], "target": [1.0, 0.0], "squared": "yes"},
            {"source": [None, 0.5], "target": [1, 0]},
            {"source": [0.5, 0.5], "target": [1, [0]]},
            {"source": [10**400, 0.5], "target": [1, 0]},
            {"source": [True, 0.5], "target": [1, 0]},
            {"source": ["0.5", 0.5], "target": [1, 0]},
            {"source": [0.5, 0.5], "target": [1, 0], "sqaured": True},
        ],
    )
    def test_bad_payloads(self, payload):
        with pytest.raises(ValidationError):
            ProblemSpec.from_payload(payload)

    def test_integer_entries_are_numbers(self):
        spec = ProblemSpec.from_payload({"source": [1, 0], "target": [1.0, 0]})
        assert spec.source == [1.0, 0.0] and spec.target == [1.0, 0.0]
        assert all(type(x) is float for x in spec.source + spec.target)

    def test_real_number_types_are_numbers(self):
        spec = ProblemSpec.from_payload(
            {
                "source": [np.float32(0.5), Fraction(1, 2)],
                "target": [np.int64(1), np.float64(0.0)],
            }
        )
        assert spec.source == [0.5, 0.5] and spec.target == [1.0, 0.0]
        assert all(type(x) is float for x in spec.source + spec.target)
        with pytest.raises(ValidationError, match=r"'source'\[0\] must be a number"):
            ProblemSpec.from_payload({"source": [np.bool_(True)], "target": [1]})
        with pytest.raises(ValidationError, match=r"'target'\[0\] is too large"):
            ProblemSpec.from_payload({"source": [1], "target": [Fraction(10**400)]})


class TestRoundTrip:
    def test_plan_transcript(self, n4_pair):
        t = plan_transcript(n4_pair)
        assert Transcript.from_json(t.to_json()) == t

    def test_simulate_transcript(self, n4_pair):
        t = simulate_transcript(n4_pair)
        assert Transcript.from_json(t.to_json()) == t

    def test_float_precision_survives(self):
        spec = ProblemSpec(
            source=[1 / 3, 1 / 3, 0.1 + 0.2, 1 - 2 / 3 - 0.30000000000000004],
            target=[0.7, 0.2, 0.1, 0.0],
        )
        t = Transcript(command="check", problem=spec.echo())
        back = Transcript.from_json(t.to_json())
        assert back.problem["source"] == spec.source  # bitwise float identity

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "must be a JSON object"),
            ('{"command": "plan", "problem": {}, "bogus": 1}', "unknown field 'bogus'"),
            ('{"command": "plan"}', "lacks 'problem'"),
        ],
        ids=["not-an-object", "unknown-field", "missing-problem"],
    )
    def test_malformed_documents_are_validation_errors(self, text, field):
        with pytest.raises(ValidationError, match=field):
            Transcript.from_json(text)
        with pytest.raises(ValidationError, match=field):
            Transcript.from_dict(json.loads(text))

    def test_invalid_json_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            Transcript.from_json('{"command": "plan",')

    def test_serialization_is_deterministic(self, n4_pair):
        a = simulate_transcript(n4_pair).to_json()
        b = simulate_transcript(n4_pair).to_json()
        assert a == b


class TestSchema:
    def test_schema_loads(self):
        schema = load_schema()
        jsonschema.Draft202012Validator.check_schema(schema)

    def test_plan_transcript_validates(self, n4_pair):
        jsonschema.validate(plan_transcript(n4_pair).to_dict(), load_schema())

    def test_simulate_transcript_validates(self, n4_pair):
        jsonschema.validate(simulate_transcript(n4_pair).to_dict(), load_schema())

    def test_check_transcript_validates(self, n4_pair):
        source, target = n4_pair
        t = Transcript(
            command="check",
            problem=ProblemSpec(
                source=list(source.squares), target=list(target.squares), squared=True
            ).echo(),
            majorization=majorization_section(majorizes(source, target)),
        )
        jsonschema.validate(t.to_dict(), load_schema())

    def test_certificate_transcript_validates(self):
        source = validate([0.4, 0.3, 0.3], squared=True)
        target = validate([0.7, 0.2, 0.1], squared=True)
        cert = greatest_first_chain(source, target, 2)
        t = Transcript(
            command="demo-infeasible",
            problem=ProblemSpec(
                source=[0.4, 0.3, 0.3], target=[0.7, 0.2, 0.1], squared=True
            ).echo(),
            majorization=majorization_section(majorizes(source, target)),
            certificate=certificate_section(cert),
        )
        jsonschema.validate(t.to_dict(), load_schema())

    def test_schema_rejects_malformed(self):
        bad = {"command": "plan"}  # missing problem/tool_version
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, load_schema())


def stdlib_json(t):
    return json.dumps(t.to_dict(), indent=2, sort_keys=True) + "\n"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e22, 0.0, -0.0]
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ∑ 😀", "\n\t"])
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1, 10**40])
    | floats
    | strings
)


def containers(children):
    return (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(strings, children)
        | st.lists(floats)
        | st.lists(floats | st.booleans())
    )


def nest(value, kinds):
    """value wrapped in one list (0) or one-key dict (1) per entry of kinds."""
    for kind in kinds:
        value = [value] if kind == 0 else {"k": value}
    return value


json_values = st.recursive(scalars, containers, max_leaves=40)
deep_values = st.builds(
    nest, json_values, st.lists(st.integers(0, 1), min_size=8, max_size=12)
)


class TestEncoder:
    """to_json against json.dumps(indent=2, sort_keys=True), its reference."""

    @settings(max_examples=300, deadline=None)
    @given(json_values, json_values | deep_values, json_values, strings)
    def test_equals_stdlib_json(self, problem, steps, frequencies, note):
        t = Transcript(
            command="plan",
            problem=problem,
            steps=steps,
            frequencies=frequencies,
            note=note,
        )
        assert t.to_json() == stdlib_json(t)

    @pytest.mark.parametrize(
        "zeros", [(0.0, -0.0), (-0.0, 0.0)], ids=["pos-neg", "neg-pos"]
    )
    def test_signed_zeros(self, zeros):
        a, b = zeros
        in_list = Transcript(command="plan", problem={"x": [a, b, 1.0, a, b]})
        in_dict = Transcript(
            command="plan", problem={"a": a, "b": b, "c": [{"d": a}, {"d": b}]}
        )
        for t in (in_list, in_dict):
            assert t.to_json() == stdlib_json(t)
        first = Transcript(command="plan", problem={"x": [a]})
        second = Transcript(command="plan", problem={"x": [b]})
        got = (first.to_json(), second.to_json())
        assert got == (stdlib_json(first), stdlib_json(second))

    def test_nested_tuples(self):
        t = Transcript(
            command="plan", problem={"w": [(1, 2), (0.5, -0.0), ()], "t": ((1.0,),)}
        )
        assert t.to_json() == stdlib_json(t)

    def test_non_str_keys_subclasses_and_errors_follow_json(self):
        class Ratio(float):
            pass

        t = Transcript(
            command="plan",
            problem={"k": {2: [1.5], 1: {}}, "r": [Ratio(0.5)]},
            note=Ratio(2.0),
        )
        assert t.to_json() == stdlib_json(t)
        with pytest.raises(TypeError, match="not JSON serializable"):
            Transcript(command="plan", problem={"x": [object()]}).to_json()
        cycle = []
        cycle.append(cycle)
        with pytest.raises(ValueError, match="Circular reference"):
            Transcript(command="plan", problem={"x": cycle}).to_json()

    def test_each_document_gets_a_fresh_float_memo(self, monkeypatch, n4_pair):
        made = []

        class Recorded(transcript._FloatText):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(transcript, "_FloatText", Recorded)
        t = plan_transcript(n4_pair)
        assert t.to_json() == t.to_json()
        assert len(made) == 2 and made[0] is not made[1] and made[0] == made[1]
