#!/usr/bin/env python3
"""End-to-end benchmark of the locc-ladder CLI.

Drives the package as a user does: one JSON problem document per call into
``locc_ladder.cli.main``, with in-memory stdin and stdout, from one
long-lived process, closed loop with one client (the next document is sent
when the previous answer is back).  The program is imported from ``src/``
of the checkout this file sits in, never from an installed copy.

    python3 perfbench/run.py --workload plan-walk --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for how each is generated):

- plan-walk: ``plan`` on small random pairs, plus sparse large ones, refused
  and degenerate ones.  The oracle's full-matrix branch-path walk does the
  largest share of the work.
- plan-dense: ``plan`` on n = 24..64 pairs where every ladder step moves, so
  serialisation, the per-step oracle checks and the planner do the work.
- simulate: ``simulate`` on ladder-feasible plans at n = 4, 10, 16, 32, each
  at --workers 1 and 2.  The trajectory sampler does the work.

A run generates the workload's fixed document list from --seed, answers it
once as the reference pass (keeping only each answer's exit code and stdout
digest), then replays it in timed passes until --seconds have gone by.
Every timed answer must repeat the reference bytes.  Peak RSS is read next,
and only then does a check pass answer every document once more and check
each answer (checks.py), outside any timing, so the checks' own memory
never shows in peak_rss_mb.

Reported times are scaled to a reference host speed by a probe that runs
between documents (see reference_speed); the unscaled times are in the
report line.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line
carries the per-layer metrics of the traced passes (tracing.py).  The line
before it is a report: machine facts, the outcome mix, the sha256 digest of
the reference pass's stdout bytes, sample counts and the numbers that only
some workloads have (shots_per_s, error_share).

Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NoReturn

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fewest fresh-interpreter starts per run.  One is made after each timed
# pass, so that a slow spell of a shared host cannot hit them all.
SETUP_SAMPLES = 11
READY = "ready"
# Host speed probe: fixed work that uses nothing of the program.  A timed
# pass runs it between documents whenever PROBE_EVERY_S has gone by, and
# once at its end; a document is scaled by the probes run within
# PROBE_WINDOW_S of it.  PROBE_REF_S, the reference speed, is a round figure
# near the probe's median time on the 2-vCPU Intel Xeon host the benchmark
# was built on (see reference_speed).
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 2.5e-3
# Each fresh-interpreter start is scaled by probes run for this long first.
SETUP_PROBE_S = 0.1
_PROBE_MATRIX = np.random.default_rng(0).random((16, 16))


def probe_seconds() -> float:
    """Time one run of the probe: small matrix products, as the program's
    numpy code makes them, and dict and sort work, as its Python code does."""
    start = time.perf_counter()
    x = _PROBE_MATRIX
    for _ in range(300):
        x = (x @ _PROBE_MATRIX) / 16.0
        squares = {j: j * j for j in range(60)}
        sorted(squares.values(), reverse=True)
    return time.perf_counter() - start


def reference_speed(probes: list[float]) -> float:
    """Factor that turns seconds measured alongside these probe times into
    seconds at the reference speed.

    A shared host runs the same code a third slower or more for seconds to
    minutes at a time, and the probe slows with it.  Scaling by the probe
    takes most of that out of the reported times, so two runs of the same
    code agree however busy the host was; the unscaled times are in the
    report line.
    """
    return PROBE_REF_S / statistics.median(probes)


def fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import locc_ladder from this checkout's src/, or exit 2."""
    if not (SRC / "locc_ladder" / "__init__.py").is_file():
        fail(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import locc_ladder
    from locc_ladder import cli

    if not Path(locc_ladder.__file__).resolve().is_relative_to(SRC):
        fail(f"locc_ladder imported from {locc_ladder.__file__}, not {SRC}")
    return cli


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg()[0],
    }


def setup_seconds() -> tuple[float, float]:
    """Wall time for a fresh interpreter to import the CLI and be ready for
    its first document, and the speed factor of probes run just before."""
    probes, until = [], time.perf_counter() + SETUP_PROBE_S
    while time.perf_counter() < until:
        probes.append(probe_seconds())
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"import locc_ladder.cli; print({READY!r}, flush=True)"
    )
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line != READY:
            fail("a fresh interpreter could not import locc_ladder.cli")
    return ready - start, reference_speed(probes)


def answer(cli, doc):
    """One document through the CLI; returns (exit code, stdout)."""
    out = io.StringIO()
    code = cli.main(list(doc.argv), io.StringIO(doc.text), out, io.StringIO())
    return code, out.getvalue()


def reference_pass(cli, docs):
    """Answer every document once; keep each exit code and stdout digest,
    and one digest of all stdout bytes in document order."""
    codes, digests, whole = [], [], hashlib.sha256()
    for doc in docs:
        code, out = answer(cli, doc)
        data = out.encode()
        codes.append(code)
        digests.append(hashlib.sha256(data).digest())
        whole.update(data)
    return codes, digests, whole.hexdigest()


def check_pass(cli, docs, codes, digests, validator):
    """Answer every document again and check each answer, one at a time."""
    problems = checks.check_worker_invariance(docs, digests)
    for i, doc in enumerate(docs):
        code, out = answer(cli, doc)
        where = f"doc {i} ({doc.kind}, n={doc.n})"
        if code != codes[i] or hashlib.sha256(out.encode()).digest() != digests[i]:
            problems.append(f"{where}: answer differs from the reference pass")
        for p in checks.check_answer(doc, code, out, validator):
            problems.append(f"{where}: {p}")
    return problems


def timed_pass(cli, docs, codes, digests, call=None):
    """Replay every document.  Returns per-document seconds, per-document
    speed factors (reference_speed of the probes within PROBE_WINDOW_S of
    the document), the pass's own factor (all its probes), and the number
    of answers that differ from the reference pass."""
    latencies, middles, probes = [], [], []  # probes: (when, seconds)
    mismatches = 0
    last_probe = -PROBE_EVERY_S
    for i, doc in enumerate(docs):
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            seconds = probe_seconds()
            last_probe = time.perf_counter()
            probes.append((last_probe, seconds))
        out = io.StringIO()
        args = (list(doc.argv), io.StringIO(doc.text), out, io.StringIO())
        start = time.perf_counter()
        code = cli.main(*args) if call is None else call(i, cli.main, *args)
        end = time.perf_counter()
        latencies.append(end - start)
        middles.append((start + end) / 2)
        if code != codes[i] or hashlib.sha256(out.getvalue().encode()).digest() != digests[i]:
            mismatches += 1
    probes.append((time.perf_counter(), probe_seconds()))
    speeds = [
        reference_speed([p for when, p in probes if abs(when - middle) <= PROBE_WINDOW_S])
        for middle in middles
    ]
    return latencies, speeds, reference_speed([p for _, p in probes]), mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    facts = machine_facts()
    if not args.trace:
        setup_seconds()  # the first start may compile bytecode; not kept
    setup = []
    docs = workloads.WORKLOADS[args.workload](args.seed)
    codes, digests, digest = reference_pass(cli, docs)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes, scaled, pass_speeds, traced, mismatches = [], [], [], [], 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not passes:
        latencies, speeds, pass_speed, bad = timed_pass(cli, docs, codes, digests)
        passes.append(latencies)
        scaled.append([t * speed for t, speed in zip(latencies, speeds)])
        pass_speeds.append(pass_speed)
        mismatches += bad
        if not args.trace:
            setup.append(setup_seconds())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                latencies, _, _, bad = timed_pass(cli, docs, codes, digests, tracer.call_main)
            finally:
                tracer.uninstall()
            mismatches += bad
            m = tracer.pass_metrics()
            m["trace.wall_ms"] = 1e3 * sum(latencies)
            m["trace.overhead_pct"] = 100 * (sum(latencies) / sum(passes[-1]) - 1)
            layer_ms = sum(m[f"{layer}.self_ms"] for layer in tracing.LAYERS)
            m["trace.accounted_pct"] = 100 * layer_ms / m["trace.wall_ms"]
            traced.append(m)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check_pass(cli, docs, codes, digests, checks.make_validator())
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds())
    if mismatches:
        problems.append(f"{mismatches} timed answers differ from the reference pass")

    attempted = len(docs)
    outcomes = Counter(checks.OUTCOMES[c] if c in checks.OUTCOMES else f"exit-{c}" for c in codes)
    failed = outcomes["internal-error"]
    shots = sum(int(d.argv[d.argv.index("--shots") + 1]) for d in docs if "--shots" in d.argv)
    # A document's latency is the median over the timed passes of its time
    # at the reference speed.
    doc_seconds = [statistics.median(times) for times in zip(*scaled)]
    raw_seconds = [statistics.median(times) for times in zip(*passes)]
    deciles = statistics.quantiles(doc_seconds, n=10, method="inclusive")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "documents": attempted,
        "passes": len(passes),
        "latency_samples": len(doc_seconds),
        "outcomes": dict(sorted(outcomes.items())),
        # End-to-end numbers that are zero or undefined on some workloads, so
        # they cannot carry a regression bound.
        "workload_metrics": {
            "error_share": {"value": failed / attempted, "unit": "share"},
            "shots_per_s": {"value": shots / sum(doc_seconds) if shots else None, "unit": "1/s"},
        },
        "stdout_sha256": digest,
        # The same end-to-end times, not scaled to the reference speed.
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup) if setup else None,
            "docs_per_s": attempted / sum(raw_seconds),
            "doc_ms_p50": 1e3 * statistics.median(raw_seconds),
            "doc_ms_p90": 1e3 * statistics.quantiles(raw_seconds, n=10, method="inclusive")[8],
        },
        # Per timed pass: the probe's median time over PROBE_REF_S.
        "probe_slowdown": [round(1 / speed, 4) for speed in pass_speeds],
        "problems": problems[:20],
    }
    print(json.dumps(report))

    if args.trace:
        per_layer = tracing.median_metrics(traced)
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in per_layer.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(t * speed for t, speed in setup), "s"),
            "docs_per_s": (attempted / sum(doc_seconds), "1/s"),
            "doc_ms_p50": (1e3 * statistics.median(doc_seconds), "ms"),
            "doc_ms_p90": (1e3 * deciles[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "answered_share": (1 - failed / attempted, "share"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
