"""Outside-in spans around the public functions of each locc_ladder layer.

Nothing here edits the program's files.  ``Tracer.install`` rebinds each
public function, in every module namespace that calls it, to a wrapper that
records a span; ``Tracer.uninstall`` puts the originals back.  The layer of
a span is the first part of its name (``schmidt``, ``ladder``, ``solvers``,
``oracle``, ``transcript``, ``cli``), and a layer's self time is the time
its spans cover minus the time their child spans cover.

Spans are kept in memory as ``[name, start, end, parent, doc, error]``
lists; parents are indices into the same list, so a document's spans form
one tree rooted at its ``cli.main`` span.

Two oracle phases have no public function of their own.  Inside one
``verify_plan`` call the per-step checks come first and the branch-path
walk second, and both go through ``apply_kraus``; a counting wrapper on
``apply_kraus`` marks the first call past the step checks as the start of
the walk.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from locc_ladder import cli, ladder, oracle, solvers, transcript
from locc_ladder.transcript import ProblemSpec, Transcript

# (owner, attribute, span name).  A function is rebound in every module
# namespace the CLI reaches it through, under one span name.
SPANNED = (
    (transcript, "validate", "schmidt.validate"),
    (cli, "majorizes", "schmidt.majorizes"),
    (ladder, "majorizes", "schmidt.majorizes"),
    (solvers, "majorizes", "schmidt.majorizes"),
    (ladder, "effective_rank", "schmidt.effective_rank"),
    (cli, "plan_full", "ladder.plan_full"),
    (ladder, "plan_full", "ladder.plan_full"),
    (ladder, "intermediate_chain", "ladder.intermediate_chain"),
    (ladder, "choose_omega", "ladder.choose_omega"),
    (ladder, "embed_step", "ladder.embed_step"),
    (cli, "greatest_first_chain", "ladder.greatest_first_chain"),
    (ladder, "solve3", "solvers.solve3"),
    (ladder, "solve2", "solvers.solve2"),
    (ladder, "completeness_defect", "solvers.completeness_defect"),
    (cli, "majorization_section", "transcript.sections"),
    (cli, "chain_section", "transcript.sections"),
    (cli, "steps_section", "transcript.sections"),
    (cli, "certificate_section", "transcript.sections"),
    (cli, "verification_section", "transcript.sections"),
    (cli, "frequencies_section", "transcript.sections"),
    (ProblemSpec, "from_payload", "transcript.parse"),
    (ProblemSpec, "parse", "transcript.parse"),
    (Transcript, "to_json", "transcript.to_json"),
)

LAYERS = ("schmidt", "ladder", "solvers", "oracle", "transcript", "cli")
SAMPLE_DEPTHS = (2, 5, 8, 16)


class Tracer:
    """Records spans and counters for one traced pass at a time."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.doc = -1
        self.counts: Counter = Counter()
        self.verify = []  # (step_checks_s, path_walk_s, enumerated, path_count)
        self.samples = []  # (depth, shots, seconds, distinct_paths, matched)
        self._verify_state = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.doc, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int, error) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = error
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(span, args, result) runs
        once the span is closed, for counters that need the result."""

        def traced(*args, **kwargs):
            index = self._open(name)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(index, error)
            if after is not None:
                after(self.spans[index], args, result)
            return result

        return traced

    def call_main(self, doc_index: int, main, *args):
        """One document through ``cli.main``, recorded as the root span."""
        self.doc = doc_index
        code = self.wrap("cli.main", main)(*args)
        self.counts[f"cli.exit.{code}"] += 1
        return code

    # -- layer-specific wrappers ------------------------------------------

    def _verify_plan(self, fn):
        def start(plan, *args, **kwargs):
            self._verify_state = {
                "left": sum(len(s.branches) for s in plan.steps),
                "walk_from": None,
            }
            return fn(plan, *args, **kwargs)

        def after(span, args, report):
            state, self._verify_state = self._verify_state, None
            walk_from = state["walk_from"] or span[2]
            self.verify.append(
                (
                    walk_from - span[1],
                    span[2] - walk_from,
                    report.path_check.enumerated,
                    report.path_check.path_count,
                )
            )

        return self.wrap("oracle.verify_plan", start, after)

    def _apply_kraus(self, fn):
        def counted(*args, **kwargs):
            state = self._verify_state
            if state is not None:
                self.counts["oracle.verify.kraus_applications"] += 1
                if state["left"] == 0 and state["walk_from"] is None:
                    state["walk_from"] = perf_counter()
                state["left"] -= 1
            return fn(*args, **kwargs)

        return counted

    def _sampled(self, span, args, report) -> None:
        plan = args[0]
        self.samples.append(
            (
                len(plan.steps),
                report.shots,
                span[2] - span[1],
                len(report.path_counts),
                round(report.match_rate * report.shots),
            )
        )

    def _serialised(self, span, args, text) -> None:
        self.counts["transcript.bytes_out"] += len(text.encode())

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, owner, attr: str, make) -> None:
        original = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        after = {"transcript.to_json": self._serialised}
        for owner, attr, name in SPANNED:
            self._rebind(owner, attr, lambda fn, name=name: self.wrap(name, fn, after.get(name)))
        self._rebind(cli, "verify_plan", self._verify_plan)
        self._rebind(oracle, "apply_kraus", self._apply_kraus)
        self._rebind(
            cli,
            "sample_trajectories",
            lambda fn: self.wrap("oracle.sample_trajectories", fn, self._sampled),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
        return {name: (calls[name], own[name]) for name in calls}

    def pass_metrics(self) -> dict:
        """Per-layer numbers for the pass recorded since the last reset."""
        times = self.self_times()

        def calls(name):
            return times.get(name, (0, 0.0))[0]

        def ms(*names):
            return 1e3 * sum(times.get(n, (0, 0.0))[1] for n in names)

        layer_ms = {layer: 0.0 for layer in LAYERS}
        for name, (_, seconds) in times.items():
            layer_ms[name.split(".")[0]] += 1e3 * seconds
        m = {
            "schmidt.validate.calls": calls("schmidt.validate"),
            "schmidt.validate.self_ms": ms("schmidt.validate"),
            "schmidt.majorizes.calls": calls("schmidt.majorizes"),
            "schmidt.majorizes.self_ms": ms("schmidt.majorizes"),
            "ladder.intermediate_chain.self_ms": ms("ladder.intermediate_chain"),
            "ladder.plan_full.self_ms": ms("ladder.plan_full"),
            "ladder.plan_full.calls": calls("ladder.plan_full"),
            "ladder.choose_omega.self_ms": ms("ladder.choose_omega"),
            "ladder.embed_step.calls": calls("ladder.embed_step"),
            "ladder.embed_step.self_ms": ms("ladder.embed_step"),
            "ladder.refusals": sum(
                1 for span in self.spans
                if span[0] == "ladder.plan_full" and span[5] == "LadderInfeasible"
            ),
            "solvers.solve3.calls": calls("solvers.solve3"),
            "solvers.solve2.calls": calls("solvers.solve2"),
            "transcript.to_json.self_ms": ms("transcript.to_json"),
            "transcript.bytes_out": self.counts["transcript.bytes_out"],
            "transcript.parse.self_ms": ms("transcript.parse"),
            "transcript.sections.self_ms": ms("transcript.sections"),
        }
        for layer, value in layer_ms.items():
            m[f"{layer}.self_ms"] = value  # cli.self_ms: cli.main minus its children
        for code in range(4):
            m[f"cli.exit.{code}"] = self.counts[f"cli.exit.{code}"]

        verified = len(self.verify)
        m["oracle.verify.calls"] = verified
        m["oracle.verify.step_checks_ms"] = 1e3 * sum(v[0] for v in self.verify)
        m["oracle.verify.path_walk_ms"] = 1e3 * sum(v[1] for v in self.verify)
        m["oracle.verify.paths_walked"] = sum(v[3] for v in self.verify if v[2])
        m["oracle.verify.kraus_applications"] = self.counts["oracle.verify.kraus_applications"]
        m["oracle.verify.enumerated_share"] = (
            sum(1 for v in self.verify if v[2]) / verified if verified else 0.0
        )

        shots = sum(s[1] for s in self.samples)
        seconds = sum(s[2] for s in self.samples)
        m["oracle.sample.shots"] = shots
        m["oracle.sample.us_per_shot"] = 1e6 * seconds / shots if shots else 0.0
        for depth in SAMPLE_DEPTHS:
            at = [s for s in self.samples if s[0] == depth]
            n = sum(s[1] for s in at)
            m[f"oracle.sample.us_per_shot.depth{depth}"] = (
                1e6 * sum(s[2] for s in at) / n if n else 0.0
            )
        m["oracle.sample.distinct_path_ratio"] = (
            sum(s[3] for s in self.samples) / shots if shots else 0.0
        )
        m["oracle.sample.match_rate"] = sum(s[4] for s in self.samples) / shots if shots else 0.0

        return m


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if ".us_per_shot" in name:
        return "us"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith(("_share", "_ratio", "match_rate")):
        return "share"
    return "count"
