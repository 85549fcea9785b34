"""Tests of the benchmark itself: its generators and its correctness checks.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import copy
import hashlib
import io
import json

import pytest

import run

cli = run.import_program()

import checks  # noqa: E402  (needs the program on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Doc  # noqa: E402


@pytest.fixture(scope="module")
def validator():
    return checks.make_validator()


def _plan_doc(source, target) -> Doc:
    return workloads._doc("test", source, target)


def _answer(doc):
    return run.answer(cli, doc)


FEASIBLE = ([0.4, 0.3, 0.2, 0.1], [0.55, 0.25, 0.15, 0.05])
NOT_MAJORIZED = ([0.5, 0.3, 0.2], [0.45, 0.45, 0.1])
# Majorized, but the smallest-first ladder does not exist (README example).
REFUSED_BY_LADDER = ([0.25] * 4, [0.3, 0.3, 0.3, 0.1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first = make(7)
    assert first == make(7)
    assert first != make(8)
    assert len(first) >= 16


def test_plan_walk_keeps_the_zero_window_crash_case():
    docs = workloads.plan_walk(3)
    pinned = [d for d in docs if d.kind == "pinned-zero-window"]
    assert len(pinned) == 1 and pinned[0].majorized
    assert _answer(pinned[0])[0] == 1  # ZeroBlockNorm on a feasible pair


def test_ladder_predicate_refuses_the_readme_counterexample():
    assert workloads.is_majorized(*REFUSED_BY_LADDER)
    assert workloads.ladder_link_margin(*REFUSED_BY_LADDER) < checks.LADDER_REFUSED
    assert workloads.ladder_link_margin(*FEASIBLE) >= checks.LADDER_EXISTS


def test_checks_accept_correct_answers(validator):
    for pair in (FEASIBLE, NOT_MAJORIZED, REFUSED_BY_LADDER):
        doc = _plan_doc(*pair)
        code, out = _answer(doc)
        assert checks.check_answer(doc, code, out, validator) == []


def test_checks_reject_wrong_exit_codes(validator):
    feasible, refused = _plan_doc(*FEASIBLE), _plan_doc(*NOT_MAJORIZED)
    code, out = _answer(feasible)
    assert code == 0
    assert checks.check_answer(feasible, 2, out, validator)
    assert checks.check_answer(feasible, 7, out, validator)
    assert checks.check_answer(feasible, 3, out, validator)  # ladder exists
    code, out = _answer(refused)
    assert code == 2
    assert checks.check_answer(refused, 0, out, validator)
    assert checks.check_answer(refused, 3, out, validator)
    assert checks.check_answer(refused, 1, "", validator)  # a crash is wrong here


def test_checks_hold_ladder_refusals_to_the_chain_test(validator):
    doc = _plan_doc(*REFUSED_BY_LADDER)
    code, out = _answer(doc)
    assert code == 3
    assert checks.check_answer(doc, 3, out, validator) == []
    assert checks.check_answer(doc, 0, out, validator)
    assert checks.check_answer(doc, 1, "", validator) == []  # counted as failed


@pytest.mark.parametrize(
    "tamper",
    [
        lambda t: t.update(extra_key=1),
        lambda t: t["verification"].update(passed=False),
        lambda t: t["problem"]["source"].reverse(),
        lambda t: t["majorization"].update(holds=False),
        lambda t: t["steps"][0].update(case=5),
    ],
    ids=["unknown-key", "not-passed", "wrong-echo", "wrong-holds", "bad-type"],
)
def test_checks_reject_a_tampered_transcript(validator, tamper):
    doc = _plan_doc(*FEASIBLE)
    code, out = _answer(doc)
    transcript = json.loads(out)
    tampered = copy.deepcopy(transcript)
    tamper(tampered)
    assert tampered != transcript
    assert checks.check_answer(doc, code, json.dumps(tampered), validator)


def test_checks_reject_simulate_output_that_depends_on_workers(validator):
    docs = workloads.simulate(5)[:2]
    outputs = [_answer(d)[1] for d in docs]
    digests = [hashlib.sha256(out.encode()).digest() for out in outputs]
    assert checks.check_worker_invariance(docs, digests) == []
    changed = outputs[1].replace('"match_rate": 1.0', '"match_rate": 0.5')
    assert changed != outputs[1]
    changed_digest = hashlib.sha256(changed.encode()).digest()
    assert checks.check_worker_invariance(docs, [digests[0], changed_digest])
    doc = docs[1]
    assert checks.check_answer(doc, 0, changed, validator)


def test_tracer_accounts_for_the_traced_time_and_restores_the_program():
    before = (cli.plan_full, cli.verify_plan, cli.Transcript.to_json)
    tracer = tracing.Tracer()
    doc = _plan_doc(*FEASIBLE)
    tracer.install()
    try:
        out = io.StringIO()
        code = tracer.call_main(0, cli.main, list(doc.argv), io.StringIO(doc.text), out, io.StringIO())
    finally:
        tracer.uninstall()
    assert (cli.plan_full, cli.verify_plan, cli.Transcript.to_json) == before
    assert code == 0 and out.getvalue() == _answer(doc)[1]
    m = tracer.pass_metrics()
    assert m["cli.exit.0"] == 1 and m["ladder.plan_full.calls"] == 1
    assert m["oracle.verify.enumerated_share"] == 1.0
    assert m["oracle.verify.kraus_applications"] > 0
    root = tracer.spans[0]
    layer_ms = sum(m[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    assert layer_ms == pytest.approx(1e3 * (root[2] - root[1]), rel=1e-9)
