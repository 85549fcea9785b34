"""Brute-force verification layer.

States live here as full n x n amplitude matrices in the product basis, and
measurement operators are applied as literal matrix products, so a defective
operator cannot hide behind the diagonal shortcut used by the planner.
Trajectory sampling is serial and draws from per-shot counter-based
streams, so a report depends only on (plan, shots, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .ladder import LadderPlan
from .schmidt import EPS_NORM, EPS_ZERO
from .solvers import DiagonalKraus

# Verification thresholds.
TOL_COMPLETENESS = 1e-12
TOL_PROB_SUM = 1e-12
TOL_PROB = 1e-10
TOL_STATE = 1e-10
TOL_SPECTRUM = 1e-10
TOL_PATH = 1e-10
# A sampled trajectory counts as arrived when entrywise within this bound.
TOL_TRAJECTORY = 1e-8

# Keep the oracle matrices desk-scale.
MAX_ORACLE_DIM = 64


@dataclass(frozen=True, eq=False)
class FullState:
    """Bipartite pure state as its amplitude matrix in the product basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"amplitude matrix must be square, got {m.shape}")
        if m.shape[0] > MAX_ORACLE_DIM:
            raise ValidationError(f"oracle capped at dimension {MAX_ORACLE_DIM}")
        if abs(float(np.linalg.norm(m)) - 1.0) > EPS_NORM:
            raise ValidationError("amplitude matrix is not normalized")
        m.flags.writeable = False

    @classmethod
    def from_layout(cls, amps) -> "FullState":
        return cls(np.diag(np.asarray(amps, dtype=float)))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def reduced_spectrum(self) -> np.ndarray:
        """Decreasing eigenvalues of the reduced density matrix of party A."""
        rho = self.matrix @ self.matrix.T
        return np.linalg.eigvalsh(rho)[::-1]


def apply_kraus(state: FullState, op: DiagonalKraus, party: str = "A"):
    """Apply one measurement operator; returns (post state, probability).

    Zero-probability outcomes return the unnormalized zero state with
    probability 0.
    """
    if op.n != state.n:
        raise DimensionMismatch(f"operator dim {op.n} vs state dim {state.n}")
    if party not in ("A", "B"):
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    m = np.diag(np.asarray(op.diag, dtype=float))
    out = m @ state.matrix if party == "A" else state.matrix @ m.T
    prob = float(np.sum(out * out))
    if prob <= EPS_ZERO:
        # Unnormalizable outcome: hand back the raw (near-)zero state,
        # bypassing the unit-norm invariant on purpose.
        zero = object.__new__(FullState)
        object.__setattr__(zero, "matrix", out)
        out.flags.writeable = False
        return zero, 0.0
    post = FullState(out / math.sqrt(prob))
    return post, prob


def apply_correction(state: FullState, perm) -> FullState:
    """Relabel basis states on both parties: index j becomes perm[j]."""
    n = state.n
    p = np.zeros((n, n))
    for j, t in enumerate(perm):
        p[t, j] = 1.0
    return FullState(p @ state.matrix @ p.T)


@dataclass(frozen=True)
class BranchCheck:
    branch_index: int
    prob_dev: float
    post_state_dev: float
    spectrum_dev: float


@dataclass(frozen=True)
class StepCheck:
    step_index: int
    completeness_dev: float
    prob_sum_dev: float
    branch_checks: tuple[BranchCheck, ...]


@dataclass(frozen=True)
class PathCheck:
    enumerated: bool
    path_count: int
    total_prob_dev: float
    max_final_dev: float
    all_reach_target: bool


@dataclass(frozen=True)
class VerificationReport:
    """Per-check deviations; failures are entries here, never exceptions."""

    step_checks: tuple[StepCheck, ...]
    path_check: PathCheck
    passed: bool
    max_deviation: float

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "steps": [
                {
                    "step_index": s.step_index,
                    "completeness_dev": s.completeness_dev,
                    "prob_sum_dev": s.prob_sum_dev,
                    "branches": [
                        {
                            "branch_index": b.branch_index,
                            "prob_dev": b.prob_dev,
                            "post_state_dev": b.post_state_dev,
                            "spectrum_dev": b.spectrum_dev,
                        }
                        for b in s.branch_checks
                    ],
                }
                for s in self.step_checks
            ],
            "path": {
                "enumerated": self.path_check.enumerated,
                "path_count": self.path_check.path_count,
                "total_prob_dev": self.path_check.total_prob_dev,
                "max_final_dev": self.path_check.max_final_dev,
                "all_reach_target": self.path_check.all_reach_target,
            },
            "tolerances": {
                "completeness": TOL_COMPLETENESS,
                "prob_sum": TOL_PROB_SUM,
                "prob": TOL_PROB,
                "post_state": TOL_STATE,
                "spectrum": TOL_SPECTRUM,
                "path": TOL_PATH,
            },
        }


def verify_plan(plan: LadderPlan, path_limit: int = 20000) -> VerificationReport:
    """Recheck a plan step by step against full-matrix arithmetic.

    Verifies per-index completeness, branch probabilities, post-correction
    states and reduced spectra against the chain, then walks every branch
    path end to end (when their number is within path_limit).
    """
    layouts = plan.chain.layouts
    n = plan.source.n
    step_checks = []
    worst = 0.0
    for k, step in enumerate(plan.steps):
        psi = FullState.from_layout(layouts[k])
        total = np.zeros((n, n))
        for br in step.branches:
            m = np.diag(np.asarray(br.op.diag, dtype=float))
            total += m.T @ m
        completeness_dev = float(np.max(np.abs(total - np.eye(n))))
        prob_sum_dev = abs(sum(br.prob for br in step.branches) - 1.0)
        next_matrix = np.diag(np.asarray(layouts[k + 1], dtype=float))
        next_spectrum = np.asarray(plan.chain.states[k + 1].squares)
        branch_checks = []
        for i, br in enumerate(step.branches):
            post, prob = apply_kraus(psi, br.op, "A")
            prob_dev = abs(prob - br.prob)
            corrected = apply_correction(post, br.correction)
            post_state_dev = float(np.max(np.abs(corrected.matrix - next_matrix)))
            spectrum_dev = float(
                np.max(np.abs(corrected.reduced_spectrum() - next_spectrum))
            )
            branch_checks.append(BranchCheck(i, prob_dev, post_state_dev, spectrum_dev))
            worst = max(worst, prob_dev, post_state_dev, spectrum_dev)
        step_checks.append(
            StepCheck(k, completeness_dev, prob_sum_dev, tuple(branch_checks))
        )
        worst = max(worst, completeness_dev, prob_sum_dev)

    path_count = 1
    for step in plan.steps:
        path_count *= len(step.branches)
    target_matrix = np.diag(np.asarray(layouts[-1], dtype=float))
    if path_count <= path_limit:
        total_prob = 0.0
        max_final_dev = 0.0
        stack = [(0, FullState.from_layout(layouts[0]), 1.0)]
        while stack:
            depth, state, acc = stack.pop()
            if depth == len(plan.steps):
                total_prob += acc
                dev = float(np.max(np.abs(state.matrix - target_matrix)))
                max_final_dev = max(max_final_dev, dev)
                continue
            for br in plan.steps[depth].branches:
                post, prob = apply_kraus(state, br.op, "A")
                stack.append(
                    (depth + 1, apply_correction(post, br.correction), acc * prob)
                )
        path = PathCheck(
            enumerated=True,
            path_count=path_count,
            total_prob_dev=abs(total_prob - 1.0),
            max_final_dev=max_final_dev,
            all_reach_target=max_final_dev <= TOL_PATH,
        )
    else:
        # Too many paths: per-step sums multiply to the total path probability.
        prod = 1.0
        for step in plan.steps:
            prod *= sum(br.prob for br in step.branches)
        path = PathCheck(
            enumerated=False,
            path_count=path_count,
            total_prob_dev=abs(prod - 1.0),
            max_final_dev=0.0,
            all_reach_target=True,
        )
    worst = max(worst, path.total_prob_dev, path.max_final_dev)

    passed = (
        all(
            s.completeness_dev <= TOL_COMPLETENESS
            and s.prob_sum_dev <= TOL_PROB_SUM
            and all(
                b.prob_dev <= TOL_PROB
                and b.post_state_dev <= TOL_STATE
                and b.spectrum_dev <= TOL_SPECTRUM
                for b in s.branch_checks
            )
            for s in step_checks
        )
        and path.total_prob_dev <= TOL_PATH
        and path.all_reach_target
    )
    return VerificationReport(
        step_checks=tuple(step_checks),
        path_check=path,
        passed=passed,
        max_deviation=worst,
    )


@dataclass(frozen=True)
class TrajectoryRecord:
    """One sampled run; replaying the same (seed, shot_index) reproduces it."""

    seed: int
    shot_index: int
    path: tuple[tuple[int, int], ...]  # (step index, branch index)
    final_state: FullState
    matched_target: bool


@dataclass(frozen=True)
class FrequencyReport:
    shots: int
    seed: int
    path_counts: dict
    branch_frequencies: tuple[tuple[float, ...], ...]
    match_rate: float
    max_final_dev: float
    records: tuple[TrajectoryRecord, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "paths": [
                {"path": list(path), "count": count}
                for path, count in sorted(self.path_counts.items())
            ],
            "branch_frequencies": [list(f) for f in self.branch_frequencies],
            "match_rate": self.match_rate,
            "max_final_dev": self.max_final_dev,
        }


def _shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Counter-based stream for one shot, derived from the master seed."""
    key = np.array([seed % (1 << 64), shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _PlanRuntime:
    """Precomputed arrays for the trajectory walk.

    Diagonal operators are applied by row scaling and corrections by index
    permutation; both reproduce the literal matrix products bit for bit on
    the full amplitude matrix, just without the per-shot allocations.
    """

    def __init__(self, plan: LadderPlan):
        self.start = np.diag(np.asarray(plan.chain.layouts[0], dtype=float))
        self.target = np.diag(np.asarray(plan.chain.layouts[-1], dtype=float))
        self.steps = []
        for step in plan.steps:
            diags = [np.asarray(br.op.diag, dtype=float) for br in step.branches]
            invs = []
            for br in step.branches:
                inv = np.empty(len(br.correction), dtype=np.intp)
                for j, t in enumerate(br.correction):
                    inv[t] = j
                invs.append(inv)
            self.steps.append((diags, invs))


def _walk(runtime: _PlanRuntime, seed: int, shot_index: int):
    rng = _shot_rng(seed, shot_index)
    draws = rng.random(len(runtime.steps))
    psi = runtime.start
    path = []
    for k, (diags, invs) in enumerate(runtime.steps):
        outs = [d[:, None] * psi for d in diags]
        probs = [float(np.sum(out * out)) for out in outs]
        u = draws[k] * sum(probs)
        chosen = len(probs) - 1
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                chosen = i
                break
        inv = invs[chosen]
        psi = outs[chosen][inv][:, inv] / math.sqrt(probs[chosen])
        path.append((k, chosen))
    dev = float(np.max(np.abs(psi - runtime.target)))
    return tuple(path), psi, dev


def run_trajectory(plan: LadderPlan, seed: int, shot_index: int) -> TrajectoryRecord:
    """Sample one complete run through the plan."""
    path, psi, dev = _walk(_PlanRuntime(plan), seed, shot_index)
    return TrajectoryRecord(
        seed=seed,
        shot_index=shot_index,
        path=path,
        final_state=FullState(psi),
        matched_target=dev <= TOL_TRAJECTORY,
    )


def sample_trajectories(
    plan: LadderPlan,
    shots: int,
    seed: int,
    *,
    workers: int = 1,
    keep_records: int = 0,
) -> FrequencyReport:
    """Monte Carlo sample of plan executions.

    Shots run serially in index order, and identical (plan, shots, seed)
    produce identical reports because every shot owns its own stream.
    workers is accepted for compatibility (it must be >= 1) and does not
    change how or where the shots run.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")

    runtime = _PlanRuntime(plan)
    path_counts: dict = {}
    branch_counts = [[0] * len(step.branches) for step in plan.steps]
    matches = 0
    max_dev = 0.0
    records = []
    for shot in range(shots):
        path, _, dev = _walk(runtime, seed, shot)
        key = tuple(branch for _, branch in path)
        path_counts[key] = path_counts.get(key, 0) + 1
        for step_idx, branch_idx in path:
            branch_counts[step_idx][branch_idx] += 1
        matches += dev <= TOL_TRAJECTORY
        max_dev = max(max_dev, dev)
        if shot < keep_records:
            records.append(run_trajectory(plan, seed, shot))
    return FrequencyReport(
        shots=shots,
        seed=seed,
        path_counts=path_counts,
        branch_frequencies=tuple(
            tuple(c / shots for c in counts) for counts in branch_counts
        ),
        match_rate=matches / shots,
        max_final_dev=max_dev,
        records=tuple(records),
    )
