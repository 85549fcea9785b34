"""Brute-force verification layer.

States live here as full n x n amplitude matrices in the product basis, so a
defective operator cannot hide behind the diagonal shortcut used by the
planner.  verify_plan's per-step checks apply each operator with apply_kraus
and the rest as literal matrix products, stacked per step: one np.matmul
per product over the step's (branches, n, n) matrices.  Their reduced
spectra come from _spectra: an exactly diagonal reduced density matrix
takes its sorted diagonal, which is LAPACK's eigvalsh answer bit for bit,
and anything else goes to one batched eigvalsh.  Its branch-path walk and
the trajectory sampler apply operators and corrections by row scaling and
index permutation of the full matrix, which gives the literal products'
values bit for bit (a product with a diagonal or permutation matrix adds
only exact zeros), without building the matrices.  Both move batches of
path prefixes as one array through one kernel (_scale, _relabel); the walk
expands a batch by all of a step's branches in one pass of it.
Trajectory sampling draws from per-shot counter-based streams, so a report
depends only on (plan, shots, seed).  It runs in one thread, in blocks of
shots: the block's streams are computed together as one Philox array, and
the walk goes a step at a time over chunks of distinct path prefixes, so
shots that share a prefix share its arithmetic.  run_trajectory is the same
walk over a block of one shot.  Every shot's draws, path and final
deviation are bit-identical to walking that shot alone with numpy's own
Philox stream, the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# Largest diagonal entries read off as they are (_spectra): well inside the
# range of about [1e-146, 1e146] that LAPACK's dsyevd reduces without first
# rescaling the matrix (and rounding it differently).
_DIAGONAL_RANGE = (1e-140, 1e140)


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
        # Written so that a NaN norm fails it too.
        if not abs(float(np.linalg.norm(m)) - 1.0) <= EPS_NORM:
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


def _spectra(rho):
    """np.linalg.eigvalsh(rho) for a (B, n, n) stack, bit for bit.

    When every matrix of the stack is exactly diagonal, with no -0.0 on its
    diagonal and its largest entry in _DIAGONAL_RANGE, the answer is the
    sorted diagonal: dsytrd's reflectors are then all zero (tau = 0), so it
    hands dsterf the diagonal unchanged and zero off-diagonals, and dsterf
    sorts the 1 x 1 blocks ascending.  Any other stack goes to eigvalsh,
    one with a NaN or inf entry included.  The -0.0 and range guards keep
    out the cases where LAPACK's answer differs from the sort's: it orders
    -0.0 and 0.0 otherwise, and outside the range it rescales first.
    """
    diag = np.diagonal(rho, axis1=1, axis2=2)
    if np.count_nonzero(rho) == np.count_nonzero(diag) and not np.signbit(diag).any():
        # A NaN or inf diagonal entry makes its row's maximum fall outside.
        low, high = _DIAGONAL_RANGE
        top = diag.max(axis=1, initial=0.0)
        if ((top >= low) & (top <= high)).all():
            return np.sort(diag, axis=1)
    return np.linalg.eigvalsh(rho)


def _check_step(k, step, psi: FullState, next_matrix, next_spectrum) -> StepCheck:
    """One step's checks, from psi to the chain's next state.

    Each outcome is applied with apply_kraus, the literal reference, so a
    branch's probability, its zero-probability case and the check on its
    post state are apply_kraus's own (perfbench's tracer also counts these
    calls).  The rest are literal matrix products on the step's stacked
    (branches, n, n) operators, permutation matrices and post states, one
    np.matmul each.  The reduced spectra are _spectra's: the sorted diagonal
    of each exactly diagonal reduced density matrix, else one batched
    eigvalsh, equal bit for bit.  numpy multiplies and diagonalises each
    matrix of a stack as it does a lone one, so the values are those of
    apply_correction and reduced_spectrum branch by branch, and every
    corrected state meets FullState's checks, as in apply_correction.
    """
    n = psi.n
    branches = step.branches
    count = len(branches)
    posts = np.empty((count, n, n))
    probs = []
    for i, br in enumerate(branches):
        post, prob = apply_kraus(psi, br.op, "A")
        posts[i] = post.matrix
        probs.append(prob)
    ops = np.zeros((count, n * n))
    ops[:, :: n + 1] = np.reshape([br.op.diag for br in branches], (count, n))
    ops = ops.reshape(count, n, n)
    # Summed branch by branch, in branch order.
    total = np.zeros((n, n))
    for square in np.matmul(ops.transpose(0, 2, 1), ops):
        total += square
    total -= np.eye(n)
    completeness_dev = float(np.abs(total, out=total).max())
    prob_sum_dev = abs(sum(br.prob for br in branches) - 1.0)
    # perms[i] has a one at (t, j) for each j -> t of branch i's correction.
    labels = np.array([br.correction for br in branches], dtype=np.intp)
    perms = np.zeros((count, n, n))
    perms[np.arange(count)[:, None], labels.reshape(count, n), np.arange(n)] = 1.0
    corrected = np.matmul(np.matmul(perms, posts), perms.transpose(0, 2, 1))
    for matrix in corrected:
        FullState(matrix)
    spectra = _spectra(np.matmul(corrected, corrected.transpose(0, 2, 1)))
    diff = corrected - next_matrix
    post_devs = np.abs(diff, out=diff).max(axis=(1, 2)).tolist()
    diff = spectra[:, ::-1] - next_spectrum
    spectrum_devs = np.abs(diff, out=diff).max(axis=1).tolist()
    branch_checks = []
    for i, br in enumerate(branches):
        prob_dev = abs(probs[i] - br.prob)
        branch_checks.append(BranchCheck(i, prob_dev, post_devs[i], spectrum_devs[i]))
    return StepCheck(k, completeness_dev, prob_sum_dev, tuple(branch_checks))


def verify_plan(plan: LadderPlan, path_limit: int = 20000) -> VerificationReport:
    """Recheck a plan step by step against full-matrix arithmetic.

    Verifies per-index completeness, branch probabilities, post-correction
    states and reduced spectra against the chain (_check_step): apply_kraus
    per branch, then literal matrix products stacked over the step's
    branches, with the values of the per-branch apply_kraus,
    apply_correction and reduced_spectrum.  A reduced density matrix that is
    exactly diagonal takes its sorted diagonal as its spectrum, which is
    eigvalsh's answer bit for bit; any other goes to eigvalsh (_spectra).
    Then walks every branch path end to end (when their number is within
    path_limit) on full amplitude matrices, by row scaling and index
    permutation (_walk_paths); the path check equals, bit for bit, that of
    walking each path with apply_kraus and apply_correction.

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
    step_checks = []
    worst = 0.0
    for k, step in enumerate(plan.steps):
        psi = FullState.from_layout(layouts[k])
        next_matrix = np.diag(np.asarray(layouts[k + 1], dtype=float))
        next_spectrum = np.asarray(plan.chain.states[k + 1].squares)
        check = _check_step(k, step, psi, next_matrix, next_spectrum)
        for b in check.branch_checks:
            worst = max(worst, b.prob_dev, b.post_state_dev, b.spectrum_dev)
        step_checks.append(check)
        worst = max(worst, check.completeness_dev, check.prob_sum_dev)

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
    final_dev: float  # entrywise distance of the final state from the target
    matched_target: bool


@dataclass(frozen=True)
class FrequencyReport:
    shots: int
    seed: int
    path_counts: dict
    branch_frequencies: tuple[tuple[float, ...], ...]
    match_rate: float
    max_final_dev: float

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

    Row s holds the first depth values of shot first_shot + s's stream,
    np.random.Generator(np.random.Philox(key=(seed mod 2^64, shot))), bit
    for bit: numpy's Philox increments its counter (c, 0, 0, 0) before each
    block of four words, and maps a word to the double (word >> 11) * 2^-53.
    All shots' blocks are computed at once, with uint64 arrays that wrap as
    the C code does.
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
    _sample_block (chunks of shots' path prefixes) and _walk_paths (every
    path) share these arrays and apply them with the same operations in the
    same order.  Per step they are the operators' diagonals as columns,
    (branches, n, 1), so that a product scales rows, and the inverse
    corrections, (branches, n), which the walks index by.
    Every operator must have the state's dimension and every correction
    must permute the basis labels.
    """

    def __init__(self, plan: LadderPlan):
        self.start = np.diag(np.asarray(plan.chain.layouts[0], dtype=float))
        self.target = np.diag(np.asarray(plan.chain.layouts[-1], dtype=float))
        n = len(self.start)
        labels = list(range(n))
        self.steps = []
        for k, step in enumerate(plan.steps):
            for i, br in enumerate(step.branches):
                if br.op.n != n:
                    raise DimensionMismatch(
                        f"step {k} branch {i}: operator dim {br.op.n} vs state dim {n}"
                    )
                if sorted(br.correction) != labels:
                    raise ValidationError(
                        f"step {k} branch {i}: correction {tuple(br.correction)} "
                        f"is not a permutation of 0..{n - 1}"
                    )
            count = len(step.branches)
            diags = np.array([br.op.diag for br in step.branches], dtype=float)
            perms = np.reshape([br.correction for br in step.branches], (count, n))
            self.steps.append((diags.reshape(count, n, 1), np.argsort(perms, axis=1)))


# Matrix entries walked as one array: a batch holds this many entries' worth
# of path prefixes (32 at n = 16, 8 at n = 32, 2 at n = 64), at least one.
# Pending chunks keep their matrices until their subtrees come up, so the
# walk's memory grows with this times the plan's depth, whatever n is.  An
# expansion holds a batch's children and their row-scaled originals, each
# as many entries as this times the step's branches.  At this budget the
# walk peaks at about 0.95 MB on an n = 16 plan of depth 8, under the
# 1.1 MB that serialising an n = 48 transcript takes; at twice it, 1.7 MB.
PATH_BATCH_ENTRIES = 8192

# The sampler's chunks, by the same measure (16 prefixes at n = 32, 64 at
# n = 16).  A few chunks wait at each step of the plan, so the walk's memory
# grows with this times the plan's depth, whatever the shot count.
SAMPLE_BATCH_ENTRIES = 16384


def _scale(states: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes on a C-contiguous batch of amplitude matrices.

    scale holds operator diagonals as columns: (n, 1) for one operator on a
    (G, n, n) batch, or (B, n, 1) for B operators on a (G, 1, n, n) view,
    which gives (G, B, n, n) blocks.  Returns the row-scaled matrices and
    each one's probability, shaped as the matrices are stacked: the
    pairwise sum of its n*n squares in row order, np.sum's order on the
    C-ordered matmul output of apply_kraus.  The row scale gives that
    matmul's values, whose products with a diagonal matrix add exact zeros
    to the single nonzero term.
    """
    out = scale * states
    n = out.shape[-1]
    return out, np.add.reduce((out * out).reshape(*out.shape[:-2], n * n), axis=-1)


def _gather_indices(invs: np.ndarray) -> np.ndarray:
    """Flat positions of relabellings, one row per inverse correction.

    Taking a C-ordered n x n matrix's entries at row b's positions permutes
    it on both axes: entry (j, l) of the result is entry (inv[j], inv[l])
    of the matrix, which is where P @ M @ P.T puts it for the correction's
    permutation matrix P.
    """
    n = invs.shape[1]
    return (invs[:, :, None] * n + invs[:, None, :]).reshape(len(invs), n * n)


def _relabel(out: np.ndarray, prob: np.ndarray, gather: np.ndarray, dest: np.ndarray):
    """Post states, written to the C-contiguous (G * B, n, n) array dest.

    out holds G row-scaled matrices, or G blocks of B, as _scale makes
    them, and prob their probabilities.  gather holds flat positions
    (_gather_indices) into one matrix, or into one block.  Each matrix is
    permuted on both axes and divided by the square root of its
    probability: the values apply_kraus then apply_correction give.
    """
    g = len(out)
    # Indices are in range; "clip" lets take write to dest unbuffered.
    np.take(out.reshape(g, -1), gather, axis=1, out=dest.reshape(g, -1), mode="clip")
    np.divide(dest, np.sqrt(prob).reshape(-1, 1, 1), out=dest)


def _walk_paths(runtime: _PlanRuntime) -> tuple[float, float]:
    """Total probability and worst final deviation over every branch path.

    Depth first over batches of path prefixes, each batch one C-contiguous
    (B, n, n) array of amplitude matrices in ascending path order.  A batch
    is expanded by all of its step's branches at once: one _scale gives the
    (B, branches) block of row-scaled matrices and their probabilities, and
    one _relabel their post states, so the values are those of apply_kraus
    and apply_correction, as (B * branches, n, n) children in prefix-major
    order.  Children of the plan's last step are complete paths and are
    evaluated where they are made: their probabilities fill one contiguous
    slice of path_probs, and the block gives its worst deviation at once.
    Other children go back on the stack in chunks (copies, so a pending
    chunk does not keep its siblings alive), the last chunk on top, so
    complete paths come off in descending order, the order of the literal
    stack walk, which pops the last branch first.  Path probabilities are
    summed one by one in that order, since a pairwise sum would round
    differently.
    """
    depth = len(runtime.steps)
    n = len(runtime.start)
    batch = max(1, PATH_BATCH_ENTRIES // (n * n))
    # The start state meets FullState's checks, as in the literal walk.
    stack = [(0, FullState(runtime.start).matrix[None], np.ones(1))]
    # Filled from the end, as complete paths come off in descending order.
    path_probs = np.empty(math.prod(len(scales) for scales, _ in runtime.steps))
    end = len(path_probs)
    max_dev = 0.0
    while stack:
        k, states, acc = stack.pop()
        if k < depth:
            scales, invs = runtime.steps[k]
            out, prob = _scale(states[:, None], scales)
            if not (np.all(prob > EPS_ZERO) and np.all(np.isfinite(prob))):
                # FullState refuses the post state apply_kraus gives here.
                raise ValidationError("amplitude matrix is not normalized")
            states = np.empty((prob.size, n, n))
            # Branch b's positions, b matrices into each block.
            gather = _gather_indices(invs) + n * n * np.arange(len(invs))[:, None]
            _relabel(out, prob, gather.ravel(), states)
            # Freed before the children are copied or compared.
            del out
            acc = (acc[:, None] * prob).reshape(-1)
            k += 1
            if k < depth:
                for lo in range(0, len(states), batch):
                    stack.append((k, states[lo : lo + batch].copy(), acc[lo : lo + batch]))
                continue
        # Complete paths: the children of a last-step batch, or the start of
        # a plan without steps.
        path_probs[end - len(acc) : end] = acc
        end -= len(acc)
        if len(acc):
            diff = states - runtime.target
            max_dev = max(max_dev, float(np.max(np.abs(diff, out=diff))))
    if not len(path_probs):
        return 0.0, 0.0
    return float(np.add.accumulate(path_probs[::-1])[-1]), max_dev


def _sample_block(runtime: _PlanRuntime, draws: np.ndarray):
    """Walk one block of shots, where draws[s, k] is shot s's draw at step k.

    Returns the block's complete paths in order of their first shot, as a
    (paths, depth) array of branch indices, with each path's shot count and
    final deviation from the target.

    Level-synchronous within a chunk, depth first over chunks.  A chunk is
    one C-contiguous (G, n, n) array of distinct path prefixes plus the
    shots that share them, each shot carrying its prefix's index.  Every
    outcome's probabilities come from scaling the whole chunk (_scale),
    each shot takes the first branch whose running probability sum exceeds
    its draw times the total (else the last), and post states
    (_relabel) are made only for the (branch, prefix) pairs that some shot
    takes, from those prefixes scaled again: holding every outcome's scaled
    chunk instead costs more memory than the second multiply costs time.
    Post states go back on the stack in chunks of at most
    SAMPLE_BATCH_ENTRIES matrix entries, each its own array, so that a
    pending chunk does not keep its siblings alive.  The arithmetic is that
    of walking each shot alone, operation for operation, and results land
    in per-shot and per-path arrays, so the order in which chunks are walked
    does not matter.
    """
    count, depth = draws.shape
    n = len(runtime.start)
    batch = max(1, SAMPLE_BATCH_ENTRIES // (n * n))
    widest = max((len(scales) for scales, _ in runtime.steps), default=1)
    choice = np.empty((count, depth), dtype=np.min_scalar_type(widest))
    # Per complete path: first shot, shot count, deviation.
    leaves = []
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
        scales, invs = runtime.steps[k]
        probs = [_scale(states, scale)[1] for scale in scales]
        # Running sums in branch order, the last one sum(probs), as a lone
        # shot adds them.
        bounds = np.add.accumulate(probs)[:, group]
        u = draws[shots, k] * bounds[-1]
        # A shot takes the first branch whose running sum exceeds u, else the
        # last; assigning from the last branch down leaves the first one.
        chosen = np.full(len(shots), len(scales) - 1)
        for i in reversed(range(len(scales))):
            chosen[u < bounds[i]] = i
        choice[shots, k] = chosen
        # One child per (branch, prefix) pair taken, branch-major.
        key = chosen * len(states) + group
        slot = np.zeros(len(scales) * len(states), dtype=np.intp)
        slot[key] = 1
        taken = np.flatnonzero(slot)
        slot[taken] = np.arange(len(taken))
        child = slot[key]
        branch, rows = np.divmod(taken, len(states))
        edges = np.searchsorted(branch, range(len(scales) + 1)).tolist()
        starts = range(0, len(taken), batch)
        if len(starts) > 1:
            # Shots sorted by child, so each chunk's shots are one slice.
            order = np.argsort(child)
            shots, child = shots[order], child[order]
        cuts = np.searchsorted(child, [*starts, len(taken)]).tolist()
        gathers = _gather_indices(invs)
        for j, lo in enumerate(starts):
            hi = min(lo + batch, len(taken))
            kids = np.empty((hi - lo, n, n))
            for i, gather in enumerate(gathers):
                a, b = max(lo, edges[i]), min(hi, edges[i + 1])
                if a < b:
                    r = rows[a:b]
                    out = scales[i] * states[r]
                    _relabel(out, probs[i][r], gather, kids[a - lo : b - lo])
            part = slice(cuts[j], cuts[j + 1])
            stack.append((k + 1, kids, shots[part], child[part] - lo))
    first, hits, dev = (np.concatenate(x) for x in zip(*leaves))
    order = np.argsort(first)
    return choice[first[order]], hits[order], dev[order]


def _sampling_runtime(plan: LadderPlan) -> _PlanRuntime:
    """_PlanRuntime for the walks that draw one outcome per step, which
    refuse a step without outcomes."""
    for k, step in enumerate(plan.steps):
        if not step.branches:
            raise ValidationError(f"step {k} has no outcomes to sample")
    return _PlanRuntime(plan)


def run_trajectory(plan: LadderPlan, seed: int, shot_index: int) -> TrajectoryRecord:
    """Sample one complete run through the plan: shot shot_index of
    sample_trajectories(plan, shots, seed), walked as a block of one shot."""
    runtime = _sampling_runtime(plan)
    draws = _shot_draws(seed, shot_index, 1, len(runtime.steps))
    paths, _, dev = _sample_block(runtime, draws)
    final_dev = float(dev[0])
    return TrajectoryRecord(
        seed=seed,
        shot_index=shot_index,
        path=tuple(enumerate(paths[0].tolist())),
        final_dev=final_dev,
        matched_target=final_dev <= TOL_TRAJECTORY,
    )


def sample_trajectories(plan: LadderPlan, shots: int, seed: int) -> FrequencyReport:
    """Monte Carlo sample of plan executions.

    Every shot owns its own counter-based stream, so identical (plan,
    shots, seed) produce identical reports.  Shots go in blocks of
    SHOT_BLOCK: one pass computes the block's draws (_shot_draws), and one
    walk over chunks of path prefixes (_sample_block) computes each
    distinct prefix once for all shots that share it.  The report
    aggregates run_trajectory over shots 0 .. shots - 1, with paths in
    order of their first shot, and equals, bit for bit, the aggregate of
    walking each shot alone.
    """
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")

    runtime = _sampling_runtime(plan)
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
    return FrequencyReport(
        shots=shots,
        seed=seed,
        path_counts=path_counts,
        branch_frequencies=tuple(
            tuple(c / shots for c in counts.tolist()) for counts in branch_counts
        ),
        match_rate=matches / shots,
        max_final_dev=max_dev,
    )
