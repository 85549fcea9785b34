"""Brute-force verification layer.

States live here as full n x n amplitude matrices in the product basis, so a
defective operator cannot hide behind the diagonal shortcut used by the
planner.  verify_plan's per-step checks apply operators and corrections as
literal matrix products.  Its branch-path walk and the trajectory sampler
apply them by row scaling and index permutation of the full matrix, which
gives the literal products' values bit for bit (a product with a diagonal
or permutation matrix adds only exact zeros), without building the
matrices.  Both move batches of path prefixes as one array through one
kernel (_scale, _relabel).
Trajectory sampling draws from per-shot counter-based streams, so a report
depends only on (plan, shots, seed).  It runs in one thread, in blocks of
shots: the block's streams are computed together as one Philox array, and
the walk goes a step at a time over chunks of distinct path prefixes, so
shots that share a prefix share its arithmetic.  The result is
bit-identical to walking each shot alone (run_trajectory).
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
    states and reduced spectra against the chain, with literal matrix
    products (apply_kraus, apply_correction) and eigvalsh.  Then walks
    every branch path end to end (when their number is within path_limit)
    on full amplitude matrices, by row scaling and index permutation
    (_walk_paths); the path check equals, bit for bit, that of walking
    each path with apply_kraus and apply_correction.

    Deviations are reported, not raised.  A plan that cannot be applied at
    all raises: DimensionMismatch for an operator of the wrong dimension,
    ValidationError for an outcome of zero probability or, when the paths
    are walked, for a correction that is not a permutation of the basis
    labels.
    """
    path_count = 1
    for step in plan.steps:
        path_count *= len(step.branches)
    # Built first, so a malformed correction is named before any check runs.
    runtime = _PlanRuntime(plan) if path_count <= path_limit else None
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

    if runtime is not None:
        total_prob, max_final_dev = _walk_paths(runtime)
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


# Shots whose draws and walk are held in memory at once; bounds the
# sampler's footprint at any shot count.
SHOT_BLOCK = 1 << 13

# Philox4x64-10 constants (Salmon et al., SC'11), as in numpy's Philox.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * b, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lo_lo, lo_hi = a_lo * b_lo, a_lo * b_hi
    hi_lo, hi_hi = a_hi * b_lo, a_hi * b_hi
    mid = (lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    hi = hi_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def _shot_draws(seed: int, first_shot: int, count: int, depth: int) -> np.ndarray:
    """Uniform draws of shots first_shot .. first_shot + count - 1, as rows.

    Row s equals _shot_rng(seed, first_shot + s).random(depth) bit for bit:
    numpy's Philox keys the stream by (seed mod 2^64, shot), increments its
    counter (c, 0, 0, 0) before each block of four words, and maps a word
    to the double (word >> 11) * 2^-53.  All shots' blocks are computed at
    once, with uint64 arrays that wrap as the C code does.
    """
    blocks = -(-depth // 4)
    k0 = np.full((count, 1), seed % (1 << 64), dtype=np.uint64)
    k1 = np.arange(first_shot, first_shot + count, dtype=np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (count, blocks))
    c1 = c2 = c3 = np.zeros((count, blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=2).reshape(count, 4 * blocks)
    return (words[:, :depth] >> np.uint64(11)) * (1.0 / (1 << 53))


class _PlanRuntime:
    """Precomputed arrays for the trajectory and branch-path walks.

    Diagonal operators are applied by row scaling and corrections by index
    permutation; both reproduce the literal matrix products bit for bit on
    the full amplitude matrix, just without the per-shot allocations.
    _walk (one shot), _sample_block (chunks of shots' path prefixes) and
    _walk_paths (every path) share these arrays and apply them with the
    same operations in the same order.  A correction must permute the basis
    labels; its inverse is what the walks index by.
    """

    def __init__(self, plan: LadderPlan):
        self.start = np.diag(np.asarray(plan.chain.layouts[0], dtype=float))
        self.target = np.diag(np.asarray(plan.chain.layouts[-1], dtype=float))
        labels = list(range(len(self.start)))
        self.steps = []
        for k, step in enumerate(plan.steps):
            diags = [np.asarray(br.op.diag, dtype=float) for br in step.branches]
            invs = []
            for i, br in enumerate(step.branches):
                if sorted(br.correction) != labels:
                    raise ValidationError(
                        f"step {k} branch {i}: correction {tuple(br.correction)} "
                        f"is not a permutation of 0..{len(labels) - 1}"
                    )
                invs.append(np.argsort(br.correction))
            self.steps.append((diags, invs))


# Matrix entries walked as one array: a batch holds this many entries' worth
# of path prefixes (10 at n = 16, 1 from n = 36), at least one.  Pending
# chunks keep their matrices until their subtrees come up, so the walk's
# memory grows with this times the plan's depth, whatever n is.
PATH_BATCH_ENTRIES = 2560

# The sampler's chunks, by the same measure (16 prefixes at n = 32, 64 at
# n = 16).  A few chunks wait at each step of the plan, so the walk's memory
# grows with this times the plan's depth, whatever the shot count.
SAMPLE_BATCH_ENTRIES = 16384


def _scale(states: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One outcome on a C-contiguous (G, n, n) batch of amplitude matrices.

    Returns the batch row-scaled by the operator's diagonal d and each
    matrix's probability: the pairwise sum of its n*n squares in row order,
    np.sum's order on the C-ordered matmul output of apply_kraus.  The row
    scale gives that matmul's values, whose products with a diagonal matrix
    add exact zeros to the single nonzero term.
    """
    out = d[:, None] * states
    return out, np.add.reduce((out * out).reshape(len(out), -1), axis=1)


def _relabel(out: np.ndarray, prob: np.ndarray, inv: np.ndarray, dest: np.ndarray):
    """Post states of one outcome, written to dest.

    Each row-scaled matrix of out (as _scale makes it) is permuted on both
    axes by inv, the inverse of the branch's correction, and divided by the
    square root of its probability: the values apply_kraus then
    apply_correction give.
    """
    g, n, _ = out.shape
    # One gather of each flattened matrix at the permuted flat positions.
    flat = (inv[:, None] * n + inv).ravel()
    moved = np.take(out.reshape(g, n * n), flat, axis=1).reshape(g, n, n)
    np.divide(moved, np.sqrt(prob)[:, None, None], out=dest)


def _walk_paths(runtime: _PlanRuntime) -> tuple[float, float]:
    """Total probability and worst final deviation over every branch path.

    Depth first over batches of path prefixes, each batch one C-contiguous
    (B, n, n) array of amplitude matrices in ascending path order.  Per
    branch the batch is scaled (_scale) and every matrix's post state is
    computed (_relabel), so the values are those of apply_kraus and
    apply_correction.  The children, ascending, go back on the stack in
    chunks (copies, so a pending chunk does not keep its siblings alive),
    the last chunk on top, so complete paths come off in descending order,
    the order of the literal stack walk, which pops the last branch first.
    Path probabilities are summed one by one in that order, since a
    pairwise sum would round differently.
    """
    depth = len(runtime.steps)
    n = len(runtime.start)
    batch = max(1, PATH_BATCH_ENTRIES // (n * n))
    # The start state meets FullState's checks, as in the literal walk.
    stack = [(0, FullState(runtime.start).matrix[None], np.ones(1))]
    # Filled from the end, as complete paths come off in descending order.
    path_probs = np.empty(math.prod(len(diags) for diags, _ in runtime.steps))
    end = len(path_probs)
    max_dev = 0.0
    while stack:
        k, states, acc = stack.pop()
        if k == depth:
            path_probs[end - len(acc) : end] = acc
            end -= len(acc)
            max_dev = max(max_dev, float(np.max(np.abs(states - runtime.target))))
            continue
        diags, invs = runtime.steps[k]
        kids = np.empty((len(states), len(diags), n, n))
        probs = np.empty((len(states), len(diags)))
        for i, (d, inv) in enumerate(zip(diags, invs)):
            out, prob = _scale(states, d)
            if not (np.all(prob > EPS_ZERO) and np.all(np.isfinite(prob))):
                # FullState refuses the post state apply_kraus gives here.
                raise ValidationError("amplitude matrix is not normalized")
            probs[:, i] = prob
            _relabel(out, prob, inv, kids[:, i])
        kids = kids.reshape(-1, n, n)
        kid_acc = (acc[:, None] * probs).reshape(-1)
        for lo in range(0, len(kids), batch):
            stack.append((k + 1, kids[lo : lo + batch].copy(), kid_acc[lo : lo + batch]))
    if not len(path_probs):
        return 0.0, 0.0
    return float(np.add.accumulate(path_probs[::-1])[-1]), max_dev


def _walk(runtime: _PlanRuntime, seed: int, shot_index: int) -> TrajectoryRecord:
    """Reference walk of one shot; sample_trajectories must agree with it."""
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
    return TrajectoryRecord(
        seed=seed,
        shot_index=shot_index,
        path=tuple(path),
        final_state=FullState(psi),
        matched_target=dev <= TOL_TRAJECTORY,
    )


def _sample_block(runtime: _PlanRuntime, draws: np.ndarray):
    """Walk one block of shots, where draws[s, k] is shot s's draw at step k.

    Returns the block's complete paths in order of their first shot, as a
    (paths, depth) array of branch indices, with each path's shot count and
    final deviation from the target.  A shot that meets a step without
    outcomes stops there and counts in no path.

    Level-synchronous within a chunk, depth first over chunks.  A chunk is
    one C-contiguous (G, n, n) array of distinct path prefixes plus the
    shots that share them, each shot carrying its prefix's index.  Every
    outcome's probabilities come from scaling the whole chunk (_scale),
    each shot takes the branch _walk takes for its draw, and post states
    (_relabel) are made only for the (branch, prefix) pairs that some shot
    takes, from those prefixes scaled again: holding every outcome's scaled
    chunk instead costs more memory than the second multiply costs time.
    Post states go back on the stack in chunks of at most
    SAMPLE_BATCH_ENTRIES matrix entries, each its own array, so that a
    pending chunk does not keep its siblings alive.  The arithmetic is
    _walk's, operation for operation, and results land in per-shot and
    per-path arrays, so the order in which chunks are walked does not
    matter.
    """
    count, depth = draws.shape
    n = len(runtime.start)
    batch = max(1, SAMPLE_BATCH_ENTRIES // (n * n))
    widest = max((len(diags) for diags, _ in runtime.steps), default=1)
    choice = np.empty((count, depth), dtype=np.min_scalar_type(widest))
    # Per complete path: first shot, shot count, deviation.  Seeded empty,
    # so a block whose shots all stop short still concatenates.
    leaves = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    stack = [(0, runtime.start[None], np.arange(count), np.zeros(count, dtype=np.intp))]
    while stack:
        k, states, shots, group = stack.pop()
        if k == depth:
            first = np.full(len(states), count)
            np.minimum.at(first, group, shots)
            diff = states - runtime.target
            dev = np.max(np.abs(diff, out=diff), axis=(1, 2))
            leaves.append((first, np.bincount(group, minlength=len(states)), dev))
            continue
        diags, invs = runtime.steps[k]
        if not diags:
            continue
        probs = [_scale(states, d)[1] for d in diags]
        # Running sums in branch order, the last one sum(probs), as in _walk.
        bounds = np.add.accumulate(probs)[:, group]
        u = draws[shots, k] * bounds[-1]
        # _walk picks the first branch whose running sum exceeds u, else the
        # last; assigning from the last branch down leaves the first one.
        chosen = np.full(len(shots), len(diags) - 1)
        for i in reversed(range(len(diags))):
            chosen[u < bounds[i]] = i
        choice[shots, k] = chosen
        # One child per (branch, prefix) pair taken, branch-major.
        key = chosen * len(states) + group
        slot = np.zeros(len(diags) * len(states), dtype=np.intp)
        slot[key] = 1
        taken = np.flatnonzero(slot)
        slot[taken] = np.arange(len(taken))
        child = slot[key]
        branch, rows = np.divmod(taken, len(states))
        edges = np.searchsorted(branch, range(len(diags) + 1)).tolist()
        starts = range(0, len(taken), batch)
        if len(starts) > 1:
            # Shots sorted by child, so each chunk's shots are one slice.
            order = np.argsort(child)
            shots, child = shots[order], child[order]
        cuts = np.searchsorted(child, [*starts, len(taken)]).tolist()
        for j, lo in enumerate(starts):
            hi = min(lo + batch, len(taken))
            kids = np.empty((hi - lo, n, n))
            for i in range(len(diags)):
                a, b = max(lo, edges[i]), min(hi, edges[i + 1])
                if a < b:
                    r = rows[a:b]
                    out = diags[i][:, None] * states[r]
                    _relabel(out, probs[i][r], invs[i], kids[a - lo : b - lo])
            part = slice(cuts[j], cuts[j + 1])
            stack.append((k + 1, kids, shots[part], child[part] - lo))
    first, hits, dev = (np.concatenate(x) for x in zip(*leaves))
    order = np.argsort(first)
    return choice[first[order]], hits[order], dev[order]


def run_trajectory(plan: LadderPlan, seed: int, shot_index: int) -> TrajectoryRecord:
    """Sample one complete run through the plan."""
    return _walk(_PlanRuntime(plan), seed, shot_index)


def sample_trajectories(
    plan: LadderPlan,
    shots: int,
    seed: int,
    *,
    workers: int = 1,
    keep_records: int = 0,
) -> FrequencyReport:
    """Monte Carlo sample of plan executions.

    Every shot owns its own counter-based stream, so identical (plan,
    shots, seed) produce identical reports.  Shots go in blocks of
    SHOT_BLOCK: one pass computes the block's draws (_shot_draws), and one
    walk over chunks of path prefixes (_sample_block) computes each
    distinct prefix once for all shots that share it.  The draws, the
    per-prefix arithmetic and the branch choice are those of the per-shot
    walk, so the report equals, bit for bit, the aggregate of
    run_trajectory over shots 0 .. shots - 1, with paths in order of their
    first shot; kept records come from the per-shot walk itself.  workers
    is accepted for compatibility (it must be >= 1) and does not change how
    or where the shots run.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")

    runtime = _PlanRuntime(plan)
    depth = len(runtime.steps)
    path_counts: dict = {}
    branch_counts = [np.zeros(len(s.branches), dtype=np.int64) for s in plan.steps]
    matches = 0
    max_dev = 0.0
    for first in range(0, shots, SHOT_BLOCK):
        count = min(SHOT_BLOCK, shots - first)
        # The draws go in unnamed, so that they are freed with the block.
        paths, hits, dev = _sample_block(
            runtime, _shot_draws(seed, first, count, depth)
        )
        # Paths go in in order of their first shot, as a shot loop puts them.
        for path, hit in zip(paths.tolist(), hits.tolist()):
            path = tuple(path)
            path_counts[path] = path_counts.get(path, 0) + hit
        for k, counts in enumerate(branch_counts):
            np.add.at(counts, paths[:, k], hits)
        matches += int(hits[dev <= TOL_TRAJECTORY].sum())
        # fmax skips a NaN deviation, as a running max() from 0.0 does.
        max_dev = float(np.fmax.reduce(dev, initial=max_dev))
    kept = range(min(keep_records, shots))
    return FrequencyReport(
        shots=shots,
        seed=seed,
        path_counts=path_counts,
        branch_frequencies=tuple(
            tuple(c / shots for c in counts.tolist()) for counts in branch_counts
        ),
        match_rate=matches / shots,
        max_final_dev=max_dev,
        records=tuple(_walk(runtime, seed, shot) for shot in kept),
    )
