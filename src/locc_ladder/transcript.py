"""Problem parsing and the serialized transcript document.

One invocation produces one JSON document.  Every section of it is built
here, by the ``*_section`` functions, from the planner's and the oracle's
data; those classes write no document themselves, and every section that
copies a record's fields comes from ``_record``.  Floats pass through
Python's shortest-round-trip repr, so parsing a serialized transcript
reproduces it exactly.  The document layout is pinned by
transcript.schema.json shipped with the package.

The document is written by a small private writer, not by ``json.dumps``:
``json`` uses its C encoder only when ``indent`` is None, so with
``indent=2`` it walks every float of a plan in pure-Python generators.  The
writer's output equals ``json.dumps(doc, indent=2, sort_keys=True)`` for
every value a transcript can hold.  It writes each list of exact floats as
one join over a per-document float-text memo (a plan's operator diagonals
and post states repeat the same few values) and each list of exact ints
over an int-text memo; it recurses in Python over dicts and over every
other list, item by item.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import DimensionMismatch, ValidationError
from .ladder import InfeasibilityCertificate, IntermediateChain, LadderPlan
from .schmidt import MajorizationReport, SchmidtVector, _is_real_kind, validate

if TYPE_CHECKING:
    from .oracle import FrequencyReport, VerificationReport


def _loads(text: str, what: str):
    """json.loads(text); ValidationError naming what, for text that is not
    JSON or that nests too deeply to parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{what} nests JSON too deeply") from exc


@dataclass(frozen=True)
class ProblemSpec:
    """Raw problem statement as read from the input document."""

    source: list[float]
    target: list[float]
    squared: bool = False
    autosort: bool = False

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        *,
        squared: bool = False,
        autosort: bool = False,
    ) -> "ProblemSpec":
        if not isinstance(payload, dict):
            raise ValidationError("input document must be a JSON object")
        for key in payload:
            if key not in _field_names(cls):
                raise ValidationError(f"input document has unknown key {key!r}")
        for key in ("source", "target"):
            if key not in payload:
                raise ValidationError(f"input document lacks '{key}'")
            if not isinstance(payload[key], list) or not payload[key]:
                raise ValidationError(f"'{key}' must be a non-empty array")
        for key in ("squared", "autosort"):
            if key in payload and type(payload[key]) is not bool:
                raise ValidationError(f"'{key}' must be a boolean")
        return cls(
            source=_numbers(payload, "source"),
            target=_numbers(payload, "target"),
            squared=bool(payload.get("squared", False)) or squared,
            autosort=bool(payload.get("autosort", False)) or autosort,
        )

    def parse(self) -> tuple[SchmidtVector, SchmidtVector]:
        source = validate(self.source, squared=self.squared, autosort=self.autosort)
        target = validate(self.target, squared=self.squared, autosort=self.autosort)
        if source.n != target.n:
            raise DimensionMismatch(
                f"source dimension {source.n} != target dimension {target.n}"
            )
        return source, target

    def echo(self) -> dict:
        return _record(self)


_JSON_KINDS = {
    type(None): "null",
    bool: "a boolean",
    str: "a string",
    list: "an array",
    dict: "an object",
}


def _numbers(payload: dict, key: str) -> list[float]:
    """payload[key] as floats; each entry must be a real number that a float
    can hold (from JSON an int or a float; from Python the entry rule's
    types, _is_real_kind, such as numpy's scalars or a Fraction)."""
    out = []
    for i, x in enumerate(payload[key]):
        if not _is_real_kind(type(x)):
            kind = _JSON_KINDS.get(type(x), type(x).__name__)
            raise ValidationError(f"'{key}'[{i}] must be a number, not {kind}")
        try:
            out.append(float(x))
        except OverflowError:
            raise ValidationError(f"'{key}'[{i}] is too large for a float") from None
    return out


@functools.cache
def _field_names(kind: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(kind))


def _record(record) -> dict:
    """A dataclass record's fields by name, in order, lists and tuples copied as lists."""
    out = {}
    for name in _field_names(type(record)):
        value = getattr(record, name)
        out[name] = list(value) if isinstance(value, (list, tuple)) else value
    return out


class _FloatText(dict):
    """Float -> its JSON text, as ``json``'s floatstr writes it; made fresh
    for each document.  Zeros are never stored: 0.0 == -0.0 and the two
    share a hash, so a stored 0.0 would answer for -0.0."""

    def __missing__(self, x: float) -> str:
        if x != x:
            text = "NaN"
        elif x == float("inf"):
            text = "Infinity"
        elif x == float("-inf"):
            text = "-Infinity"
        else:
            text = float.__repr__(x)
        if x:
            self[x] = text
        return text


class _IntText(dict):
    """Int -> its JSON text; made fresh for each document.  Never given a
    bool: True == 1 and shares its hash, so it would read 1's text."""

    def __missing__(self, x: int) -> str:
        text = self[x] = int.__repr__(x)
        return text


def _write(value, indent: str, floats: _FloatText, ints: _IntText, out: list) -> None:
    """Append to out the text of value as ``json.dumps(value, indent=2,
    sort_keys=True)`` writes it nested at indent, with floats from floats
    and the items of int lists from ints."""
    kind = type(value)
    if kind is float:
        out.append(floats[value])
    elif (kind is list or kind is tuple) and value:
        inner = indent + "  "
        sep = ",\n" + inner
        kinds = set(map(type, value))
        out.append("[\n" + inner)
        if kinds == {float}:
            out.append(sep.join(map(floats.__getitem__, value)))
        elif kinds == {int}:
            out.append(sep.join(map(ints.__getitem__, value)))
        else:
            for i, item in enumerate(value):
                if i:
                    out.append(sep)
                _write(item, inner, floats, ints, out)
        out.append("\n" + indent + "]")
    elif kind is dict and value and set(map(type, value)) == {str}:
        inner = indent + "  "
        lead = "{\n" + inner
        for key, item in sorted(value.items()):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            lead = ",\n" + inner
            _write(item, inner, floats, ints, out)
        out.append("\n" + indent + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    else:
        # Empty containers, subclasses, non-str keys and values json
        # rejects: json's own text or error.
        text = json.dumps(value, indent=2, sort_keys=True)
        out.append(text.replace("\n", "\n" + indent))


@dataclass(frozen=True)
class Transcript:
    """Everything one command run produced, serializable losslessly."""

    command: str
    problem: dict
    tool_version: str = __version__
    majorization: Optional[dict] = None
    chain: Optional[dict] = None
    steps: Optional[list] = None
    verification: Optional[dict] = None
    certificate: Optional[dict] = None
    seed: Optional[int] = None
    shots: Optional[int] = None
    frequencies: Optional[dict] = None
    note: Optional[str] = None

    def to_dict(self) -> dict:
        """The fields as a dict, in declaration order: a new ``steps`` list,
        but the section dicts this transcript holds, which the ``*_section``
        functions built fresh for it.  Callers must not mutate what it returns.
        """
        return _record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Transcript":
        """The transcript d holds; a ValidationError names the field when d
        is not an object, has an unknown field or lacks a required one."""
        if not isinstance(d, dict):
            raise ValidationError("transcript must be a JSON object")
        for key in d:
            if key not in _field_names(cls):
                raise ValidationError(f"transcript has unknown field {key!r}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ValidationError(f"transcript lacks '{f.name}'")
        return cls(**d)

    def to_json(self) -> str:
        """The document, equal to ``json.dumps(self.to_dict(), indent=2,
        sort_keys=True) + "\\n"`` (see the module docstring for why it is
        not written that way)."""
        doc, out = self.to_dict(), []
        try:
            _write(doc, "", _FloatText(), _IntText(), out)
            out.append("\n")
            return "".join(out)
        except RecursionError:
            # A cycle or very deep nesting: json's own error or text.
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        return cls.from_dict(_loads(text, "transcript"))


def majorization_section(report: MajorizationReport) -> dict:
    return _record(report)


def chain_section(chain: IntermediateChain) -> dict:
    return {
        "m": chain.m,
        "states": [list(s.squares) for s in chain.states],
        "layouts": [list(map(operator.mul, layout, layout)) for layout in chain.layouts],
        "tilde_values": list(chain.tilde_values),
        "windows": [list(w) for w in chain.windows],
    }


def steps_section(plan: LadderPlan) -> list:
    out = []
    for k, step in enumerate(plan.steps):
        out.append(
            {
                "index": k,
                "window": list(plan.chain.windows[k]),
                "case": step.case_tag,
                "pruned_count": step.pruned_count,
                "branches": [
                    {
                        "diag": list(br.op.diag),
                        "prob": br.prob,
                        "correction": list(br.correction),
                        "post_state": list(br.post_state.squares),
                    }
                    for br in step.branches
                ],
            }
        )
    return out


def certificate_section(cert: InfeasibilityCertificate) -> dict:
    return _record(cert)


def verification_section(report: VerificationReport) -> dict:
    # Imported here, not at the top: a report exists only once verify_plan
    # has loaded the oracle, which a run that never verifies does not need.
    from .oracle import TOLERANCES

    return {
        "passed": report.passed,
        "max_deviation": report.max_deviation,
        "steps": [
            {
                "step_index": s.step_index,
                "completeness_dev": s.completeness_dev,
                "prob_sum_dev": s.prob_sum_dev,
                "branches": [_record(b) for b in s.branch_checks],
            }
            for s in report.step_checks
        ],
        "path": _record(report.path_check),
        "tolerances": dict(TOLERANCES),
    }


def frequencies_section(report: FrequencyReport) -> dict:
    return {
        "shots": report.shots,
        "seed": report.seed,
        "paths": [
            {"path": list(path), "count": count}
            for path, count in sorted(report.path_counts.items())
        ],
        "branch_frequencies": [list(f) for f in report.branch_frequencies],
        "match_rate": report.match_rate,
        "max_final_dev": report.max_final_dev,
    }


def load_schema() -> dict:
    """The JSON schema the transcript documents conform to."""
    # Imported on call: only tests and the benchmark's checks read the schema.
    from importlib import resources

    text = resources.files("locc_ladder").joinpath("transcript.schema.json").read_text()
    return json.loads(text)
