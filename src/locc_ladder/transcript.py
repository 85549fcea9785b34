"""Problem parsing and the serialized transcript document.

One invocation produces one JSON document.  Floats pass through Python's
shortest-round-trip repr, so parsing a serialized transcript reproduces it
exactly.  The document layout is pinned by transcript.schema.json shipped
with the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from typing import Optional

from . import __version__
from .errors import DimensionMismatch, ValidationError
from .ladder import InfeasibilityCertificate, IntermediateChain, LadderPlan
from .oracle import FrequencyReport, VerificationReport
from .schmidt import MajorizationReport, SchmidtVector, validate


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
        for key in ("source", "target"):
            if key not in payload:
                raise ValidationError(f"input document lacks '{key}'")
            if not isinstance(payload[key], list) or not payload[key]:
                raise ValidationError(f"'{key}' must be a non-empty array")
        for key in ("squared", "autosort"):
            if key in payload and not isinstance(payload[key], bool):
                raise ValidationError(f"'{key}' must be a boolean")
        return cls(
            source=[float(x) for x in payload["source"]],
            target=[float(x) for x in payload["target"]],
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
        return {
            "source": list(self.source),
            "target": list(self.target),
            "squared": self.squared,
            "autosort": self.autosort,
        }


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
        """The fields as a dict, in declaration order.

        The dict is shallow: it shares the section objects this transcript
        holds, which the ``*_section`` helpers and the reports' ``to_dict``
        built fresh for it.  Callers must not mutate what it returns.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Transcript":
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Transcript":
        return cls.from_dict(json.loads(text))


def majorization_section(report: MajorizationReport) -> dict:
    return {
        "holds": report.holds,
        "failing_k": report.failing_k,
        "tail_margins": list(report.tail_margins),
    }


def chain_section(chain: IntermediateChain) -> dict:
    return {
        "m": chain.m,
        "states": [list(s.squares) for s in chain.states],
        "layouts": [[a * a for a in layout] for layout in chain.layouts],
        "tilde_values": list(chain.tilde_values),
        "windows": [list(w) for w in chain.windows],
    }


def steps_section(plan: LadderPlan) -> list:
    out = []
    for k, step in enumerate(plan.steps):
        out.append(
            {
                "index": k,
                "window": list(step.window) if step.window is not None else None,
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
    return cert.to_dict()


def verification_section(report: VerificationReport) -> dict:
    return report.to_dict()


def frequencies_section(report: FrequencyReport) -> dict:
    return report.to_dict()


def load_schema() -> dict:
    """The JSON schema the transcript documents conform to."""
    text = resources.files("locc_ladder").joinpath("transcript.schema.json").read_text()
    return json.loads(text)
