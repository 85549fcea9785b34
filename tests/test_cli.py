import ast
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locc_ladder
from locc_ladder import Transcript, cli, load_schema
from locc_ladder.cli import _build_parser, main
from locc_ladder.sampling import random_feasible_pair

import jsonschema

from helpers import DEGENERATE_PAIRS, PIN_FLOORS, asdict_json, degenerate_fuzz_pair, dense_pair


def run_cli(argv, payload=None, env_seed=None, monkeypatch=None):
    if env_seed is not None:
        monkeypatch.setenv("DLT_SEED", str(env_seed))
    stdin = io.StringIO(json.dumps(payload) if payload is not None else "")
    stdout = io.StringIO()
    stderr = io.StringIO()
    code = main(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


N4 = {"source": [0.4, 0.3, 0.2, 0.1], "target": [0.55, 0.25, 0.15, 0.05]}
FAILING = {"source": [0.5, 0.3, 0.2], "target": [0.45, 0.45, 0.1]}
GF_FIXTURE = {"source": [0.4, 0.3, 0.3], "target": [0.7, 0.2, 0.1]}
LADDER_GAP = {"source": [0.25, 0.25, 0.25, 0.25], "target": [0.3, 0.3, 0.3, 0.1]}


class TestCheck:
    def test_feasible_exit_zero(self):
        code, out, _ = run_cli(["check", "--squared"], N4)
        assert code == 0
        assert "majorization holds: True" in out

    def test_infeasible_exit_two(self):
        code, out, _ = run_cli(["check", "--squared"], FAILING)
        assert code == 2
        assert "failing tail index k = 2" in out

    def test_machine_format_validates(self):
        code, out, _ = run_cli(["check", "--squared", "--format", "machine"], N4)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["majorization"]["holds"] is True

    @pytest.mark.parametrize(
        "payload",
        [
            {"source": [0.5, -0.5], "target": [1.0, 0.0]},
            {"source": [1.0], "target": [1.0]},
            {"source": [0.5, 0.5]},
        ],
    )
    def test_bad_input_exit_one(self, payload):
        code, _, err = run_cli(["check", "--squared"], payload)
        assert code == 1
        assert "error:" in err

    def test_bad_json_exit_one(self):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = main(
            ["check"], stdin=io.StringIO("not json"), stdout=stdout, stderr=stderr
        )
        assert code == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {"source": [None, 0.5], "target": [1, 0]},
                "'source'[0] must be a number, not null",
            ),
            (
                {"source": [0.5, 0.5], "target": [1, [0]]},
                "'target'[1] must be a number, not an array",
            ),
            (
                {"source": [0.5, True], "target": [1, 0]},
                "'source'[1] must be a number, not a boolean",
            ),
            (
                {"source": ["0.5", 0.5], "target": [1, 0]},
                "'source'[0] must be a number, not a string",
            ),
            (
                {"source": [0.5, 0.5], "target": [10**400, 0]},
                "'target'[0] is too large for a float",
            ),
            (
                {"source": [0.5, 0.5], "target": [1, 0], "sqaured": True},
                "input document has unknown key 'sqaured'",
            ),
        ],
        ids=["null", "nested-array", "bool", "string", "400-digit-int", "unknown-key"],
    )
    def test_malformed_entry_exit_one(self, payload, message):
        for command in ("check", "plan"):
            got = run_cli([command, "--squared", "--format", "machine"], payload)
            assert got == (1, "", f"error: {message}\n")

    def test_unsorted_needs_autosort(self):
        payload = {"source": [0.3, 0.5, 0.2], "target": [0.7, 0.2, 0.1]}
        code, _, _ = run_cli(["check", "--squared"], payload)
        assert code == 1
        code, _, _ = run_cli(["check", "--squared", "--autosort"], payload)
        assert code == 0


class TestPlan:
    def test_running_example(self):
        code, out, _ = run_cli(["plan", "--squared", "--format", "machine"], N4)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert len(doc["steps"]) == 2
        assert doc["verification"]["passed"] is True
        back = Transcript.from_json(out)
        assert back.to_json() == out

    def test_single_step_three_dim(self):
        payload = {"source": [0.4, 0.35, 0.25], "target": [0.5, 0.4, 0.1]}
        code, out, _ = run_cli(["plan", "--squared", "--format", "machine"], payload)
        doc = json.loads(out)
        assert code == 0
        assert len(doc["steps"]) == 1
        assert doc["steps"][0]["case"] == "CASE_II"

    def test_identity_problem(self):
        payload = {"source": [0.6, 0.4], "target": [0.6, 0.4]}
        code, out, _ = run_cli(["plan", "--squared", "--format", "machine"], payload)
        doc = json.loads(out)
        assert code == 0
        assert doc["steps"][0]["case"] == "TRIVIAL"

    def test_not_majorized_exit_two(self):
        code, _, _ = run_cli(["plan", "--squared"], FAILING)
        assert code == 2

    def test_ladder_gap_exit_three_with_certificate(self):
        code, out, _ = run_cli(
            ["plan", "--squared", "--format", "machine"], LADDER_GAP
        )
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["certificate"]["kind"] == "link_not_majorized"
        assert doc["majorization"]["holds"] is True


class TestSimulate:
    def test_deterministic_output_bytes(self):
        args = ["simulate", "--squared", "--shots", "300", "--seed", "9",
                "--format", "machine"]
        _, first, _ = run_cli(args, N4)
        _, second, _ = run_cli(args, N4)
        assert first == second

    def test_workers_preserve_bytes(self):
        base = ["simulate", "--squared", "--shots", "300", "--seed", "9",
                "--format", "machine"]
        _, serial, _ = run_cli(base + ["--workers", "1"], N4)
        _, threaded, _ = run_cli(base + ["--workers", "4"], N4)
        assert serial == threaded

    def test_shots_zero_rejected(self):
        code, _, err = run_cli(
            ["simulate", "--squared", "--shots", "0"], N4
        )
        assert code == 1
        assert "shots" in err

    def test_identity_single_branch(self):
        payload = {"source": [0.6, 0.4], "target": [0.6, 0.4]}
        code, out, _ = run_cli(
            ["simulate", "--squared", "--shots", "50", "--seed", "3",
             "--format", "machine"],
            payload,
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["frequencies"]["branch_frequencies"] == [[1.0]]
        assert doc["frequencies"]["match_rate"] == 1.0

    def test_env_seed_default(self, monkeypatch):
        code, out, _ = run_cli(
            ["simulate", "--squared", "--shots", "100", "--format", "machine"],
            N4,
            env_seed=555,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["seed"] == 555

    def test_seed_flag_overrides_env(self, monkeypatch):
        code, out, _ = run_cli(
            ["simulate", "--squared", "--shots", "100", "--seed", "1",
             "--format", "machine"],
            N4,
            env_seed=555,
            monkeypatch=monkeypatch,
        )
        assert json.loads(out)["seed"] == 1

    def test_seeds_appear_in_transcript(self):
        code, out, _ = run_cli(
            ["simulate", "--squared", "--shots", "120", "--seed", "77",
             "--format", "machine"],
            N4,
        )
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["seed"] == 77 and doc["shots"] == 120


class TestDemoInfeasible:
    def test_fixture_certificate(self):
        code, out, _ = run_cli(
            ["demo-infeasible", "--squared", "--m", "2", "--format", "machine"],
            GF_FIXTURE,
        )
        assert code == 0  # informational command
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["certificate"]["kind"] == "rank_collapse"
        assert doc["certificate"]["step_index"] == 1

    def test_identity_no_collapse(self):
        payload = {"source": [0.6, 0.4], "target": [0.6, 0.4]}
        code, out, _ = run_cli(
            ["demo-infeasible", "--squared", "--format", "machine"], payload
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["certificate"] is None

    def test_block_three_running_example(self):
        code, out, _ = run_cli(
            ["demo-infeasible", "--squared", "--m", "3", "--format", "machine"], N4
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["chain"] is not None
        assert doc["chain"]["states"][1] == pytest.approx(
            [0.55, 0.25, 0.1, 0.1], abs=1e-12
        )

    def test_not_majorized_exit_two(self):
        code, _, _ = run_cli(["demo-infeasible", "--squared"], FAILING)
        assert code == 2


def test_console_entry_point_runs():
    # The child imports the package from where this process found it, so
    # the test also runs on an uninstalled checkout.
    src = str(Path(locc_ladder.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "locc_ladder", "check", "--squared"],
        input=json.dumps(N4),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "majorization holds: True" in proc.stdout


def _refused_random_pair(n):
    """A random majorization-feasible pair, as plan-walk draws them, that
    the ladder refuses; in squared coefficients."""
    rng = np.random.default_rng([20261019, n])
    while True:
        source, target = random_feasible_pair(rng, n)
        try:
            cli.plan_full(source, target)
        except locc_ladder.LadderInfeasible:
            return {"source": list(source.squares), "target": list(target.squares)}


# Run in a fresh interpreter: each case through main, then whether numpy and
# the oracle are loaded.
_LOADED_AFTER_EACH = """
import io, json, sys
import locc_ladder.cli
loaded = []
for argv, text in json.load(sys.stdin):
    code = locc_ladder.cli.main(argv, io.StringIO(text), io.StringIO(), io.StringIO())
    loaded.append([code, "numpy" in sys.modules, "locc_ladder.oracle" in sys.modules])
print(json.dumps(loaded))
"""


def test_numpy_loads_only_when_a_plan_is_verified():
    # The oracle, and numpy with it, loads at the first verify_plan call, so
    # a run that ends before verification never imports either.
    refused = json.dumps(_refused_random_pair(8))
    machine = ["--squared", "--format", "machine"]
    wide = json.dumps({"source": [1 / 65] * 65, "target": [1.0] + [0.0] * 64})
    cases = [
        (["check", *machine], json.dumps(N4), 0),
        (["check", "--squared"], json.dumps(FAILING), 2),
        (["plan", *machine], json.dumps(FAILING), 2),
        (["plan", *machine], refused, 3),
        (["plan", "--squared"], json.dumps(LADDER_GAP), 3),
        (["simulate", *machine, "--shots", "50"], refused, 3),
        (["demo-infeasible", *machine], json.dumps(GF_FIXTURE), 0),
        (["--help"], "", 0),
        (["plan", "--no-such-flag"], "", 1),
        (["plan", "--squared"], "{not json", 1),
        (["plan", "--squared"], wide, 1),
        (["plan", *machine], json.dumps(N4), 0),
    ]
    src = str(Path(locc_ladder.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH],
        input=json.dumps([(argv, text) for argv, text, _ in cases]),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    verified = [False] * (len(cases) - 1) + [True]
    expected = [[code, v, v] for (_, _, code), v in zip(cases, verified)]
    assert json.loads(proc.stdout) == expected


GAP_CERT = (
    "[link_not_majorized at step 2] intermediate state 1 is not majorized by "
    "state 2 (tail k=2, margin -5.000e-02); the smallest-first ladder cannot "
    "transform this pair"
)
GF_GAP_LINES = [
    "greatest-first chain is feasible for this pair:",
    "  state 0: lambda = (0.25, 0.25, 0.25, 0.25)",
    "  state 1: lambda = (0.3, 0.25, 0.25, 0.2)",
    "  state 2: lambda = (0.3, 0.3, 0.25, 0.15)",
    "  state 3: lambda = (0.3, 0.3, 0.3, 0.1)",
]


@pytest.mark.parametrize(
    "command, payload, code, lines, note",
    [
        ("plan", FAILING, 2,
         ["majorization fails at k=2; no deterministic plan"], None),
        ("simulate", FAILING, 2,
         ["majorization fails at k=2; nothing to simulate"], None),
        ("demo-infeasible", FAILING, 2, ["majorization fails at k=2"], None),
        ("plan", LADDER_GAP, 3,
         ["majorization holds, but the smallest-first ladder cannot",
          "realize this pair:", "  " + GAP_CERT],
         "pair is majorization-feasible but the ladder construction is not"),
        ("simulate", LADDER_GAP, 3,
         ["ladder construction infeasible: " + GAP_CERT], None),
        # demo-infeasible never runs the ladder, so the gap pair is no refusal.
        ("demo-infeasible", LADDER_GAP, 0, GF_GAP_LINES,
         "greatest-first chain is feasible for this pair"),
    ],
)
def test_refusal_wording_per_command(command, payload, code, lines, note):
    got, out, err = run_cli([command, "--squared"], payload)
    assert (got, out, err) == (code, "".join(line + "\n" for line in lines), "")
    got, out, err = run_cli([command, "--squared", "--format", "machine"], payload)
    assert (got, err) == (code, "")
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == command
    assert doc["note"] == note
    assert doc["majorization"]["holds"] is (payload is LADDER_GAP)
    assert (doc["certificate"] is not None) is (code == 3)
    if code == 3:
        assert doc["certificate"]["message"] in GAP_CERT
    assert (doc["steps"], doc["frequencies"], doc["verification"]) == (None,) * 3


# The planner calls these two states equal, since their squares agree to
# EPS_CMP, but their amplitudes differ by 1e-6: the plan's one TRIVIAL step
# fails verify_plan.
UNVERIFIABLE = {
    "source": [(1 - 3e-12) / 9] * 9 + [1e-12] * 3,
    "target": [1 / 9] * 9 + [0.0] * 3,
}


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_plan_failing_verification_is_one_error_line(monkeypatch, command, fmt):
    sampled = []
    monkeypatch.setattr(cli, "sample_trajectories", lambda *args: sampled.append(args))
    code, out, err = run_cli([command, "--squared", "--format", fmt], UNVERIFIABLE)
    assert (code, out, sampled) == (1, "", [])
    pattern = r"error: built plan fails verification \(max deviation \d\.\d{3}e-\d+\)\n"
    assert re.fullmatch(pattern, err)


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_oracle_dimension_cap(monkeypatch, command):
    # The ladder would plan this n = 65 pair, but the oracle that checks the
    # plan holds at most a 64 x 64 amplitude matrix: no plan is built.
    source, target = random_feasible_pair(np.random.default_rng(1), 65, alpha=5.0, moves=3)
    assert len(cli.plan_full(source, target).steps) == 32
    built = []
    monkeypatch.setattr(cli, "plan_full", lambda *args: built.append(args))
    payload = {"source": list(source.amps), "target": list(target.amps)}
    code, out, err = run_cli([command, "--format", "machine"], payload)
    assert (code, out, err) == (1, "", "error: oracle capped at dimension 64\n")
    # The majorization refusal comes first, and keeps its exit 2.
    reversed_pair = {"source": payload["target"], "target": payload["source"]}
    assert run_cli([command, "--format", "machine"], reversed_pair)[0] == 2
    assert built == []


class TestCachedParser:
    """main reuses one parser per process; every call must parse afresh."""

    def test_simulate_defaults_after_explicit_flags(self, monkeypatch):
        code, out, _ = run_cli(
            ["simulate", "--squared", "--seed", "5", "--shots", "7",
             "--format", "machine"],
            N4,
        )
        doc = json.loads(out)
        assert (code, doc["seed"], doc["shots"]) == (0, 5, 7)
        code, out, _ = run_cli(
            ["simulate", "--squared", "--format", "machine"],
            N4,
            env_seed=31,
            monkeypatch=monkeypatch,
        )
        doc = json.loads(out)
        assert (code, doc["seed"], doc["shots"]) == (0, 31, 10000)

    def test_plan_flags_do_not_carry_over(self):
        code, _, _ = run_cli(["plan", "--squared"], N4)
        assert code == 0
        amplitudes = {key: [x**0.5 for x in v] for key, v in N4.items()}
        code, out, _ = run_cli(["plan", "--format", "machine"], amplitudes)
        doc = json.loads(out)
        assert code == 0
        assert doc["problem"]["squared"] is False

    def test_help_and_usage_go_to_main_streams(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = _build_parser.__wrapped__()
        run_cli(["check", "--squared"], N4)  # the cached parser has been used
        assert run_cli(["--help"]) == (0, fresh.format_help(), "")
        usage_error = "locc-ladder: error: unrecognized arguments: --bogus\n"
        # A usage error is an input error: exit 2 means majorization fails.
        assert run_cli(["plan", "--bogus"]) == (1, "", fresh.format_usage() + usage_error)
        assert capsys.readouterr() == ("", "")


N32 = dict(zip(("source", "target"), dense_pair(32)))
N64 = dict(zip(("source", "target"), dense_pair(64)))
ZERO_TAIL = dict(zip(("source", "target"), DEGENERATE_PAIRS[3]))
TINY = dict(zip(("source", "target"), DEGENERATE_PAIRS[4]))


@pytest.mark.parametrize(
    "argv, payload, code",
    [
        (["check"], N4, 0),
        (["plan"], N4, 0),
        (["plan"], N32, 0),
        (["plan"], N64, 0),
        (["plan"], ZERO_TAIL, 0),
        (["plan"], TINY, 0),
        (["simulate", "--shots", "300", "--seed", "9"], N4, 0),
        (["plan"], FAILING, 2),
        (["plan"], LADDER_GAP, 3),
        (["demo-infeasible"], GF_FIXTURE, 0),
        (["demo-infeasible"], LADDER_GAP, 0),
    ],
    ids=["check", "plan-n4", "plan-n32", "plan-n64", "plan-zero-tail",
         "plan-1e-13", "simulate", "not-majorized",
         "ladder-infeasible", "demo-certificate", "demo-chain"],
)
def test_to_json_bytes_equal_the_asdict_path(monkeypatch, argv, payload, code):
    written = []
    emit = cli._emit

    def capture(transcript, *args):
        written.append(transcript)
        emit(transcript, *args)

    monkeypatch.setattr(cli, "_emit", capture)
    got, out, err = run_cli([*argv, "--squared", "--format", "machine"], payload)
    assert (got, err) == (code, "")
    (t,) = written
    assert out == t.to_json() == asdict_json(t)
    assert Transcript.from_json(t.to_json()) == t


def _contract_payloads():
    """The exit contract's documents: the first 128 pairs of the pinned
    degenerate corpus, each also reversed, then malformed documents."""
    rng = np.random.default_rng(12)
    pairs = [degenerate_fuzz_pair(rng, trial, PIN_FLOORS[trial % 4]) for trial in range(128)]
    texts = [json.dumps({"source": s, "target": t}) for s, t in pairs]
    texts += [json.dumps({"source": t, "target": s}) for s, t in pairs]
    n65 = random_feasible_pair(np.random.default_rng(1), 65, alpha=5.0, moves=3)
    texts += [
        '{"source": [0.5, 0.5], "target":',
        "[" * 100000,
        '{"source": ' + "[" * 3000 + "]" * 3000 + ', "target": [1.0]}',
        json.dumps({"source": [0.5, 0.5], "target": [1.0, 0.0], "bogus": 1}),
        json.dumps({"source": [0.5, None], "target": [1.0, 0.0]}),
        json.dumps({"source": list(n65[0].squares), "target": list(n65[1].squares)}),
    ]
    return texts


CONTRACT_PAYLOADS = _contract_payloads()
# What NotMajorized and LadderInfeasible say: the answers of exits 2 and 3.
REFUSAL_MESSAGE = re.compile(r"majorization fails at k=|\[\w+ at step \d+\]")


@pytest.mark.parametrize("fmt", ["human", "machine"])
@pytest.mark.parametrize(
    "argv",
    [["check"], ["plan"], ["simulate", "--shots", "20", "--seed", "5"], ["demo-infeasible"]],
    ids=lambda argv: argv[0],
)
def test_exit_contract(argv, fmt):
    # Exits 0, 2 and 3 answer on stdout alone; exit 1 is one error line on
    # stderr alone, and never a refusal that exits 2 or 3 elsewhere.
    validator = jsonschema.validators.validator_for(load_schema())(load_schema())
    argv = [*argv, "--squared", "--autosort", "--format", fmt]
    codes = set()
    for text in CONTRACT_PAYLOADS:
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, io.StringIO(text), out, err)
        out, err = out.getvalue(), err.getvalue()
        codes.add(code)
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            assert err.endswith("\n") and not REFUSAL_MESSAGE.search(err), err
        else:
            assert code in (0, 2, 3) and err == "" and out, (code, err)
            if fmt == "machine":
                validator.validate(json.loads(out))
    assert {0, 1, 2} <= codes


def _call_sites(source):
    """(name of the top-level definition around it, callee as written) for
    each call in source."""
    return [
        (getattr(top, "name", None), ast.unparse(node.func))
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
    ]


def test_main_is_the_one_writer():
    # Commands return their answer; main alone writes it, through _emit,
    # and alone writes an error line.
    sites = _call_sites(Path(cli.__file__).read_text())

    def callers(callee):
        return [owner for owner, name in sites if name == callee]

    assert callers("_emit") == ["main"]
    assert set(callers("stdout.write")) == {"_emit"}
    assert callers("stderr.write") == ["main"]
    assert callers("print") == []
    sample = "def _emit(stdout):\n    stdout.write(1)\n\ndef main():\n    _emit(f(2))\n"
    assert _call_sites(sample) == [("_emit", "stdout.write"), ("main", "_emit"), ("main", "f")]
