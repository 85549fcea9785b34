"""Brute-force verification layer.

States live here as full n x n amplitude matrices in the product basis, so a
defective operator cannot hide behind the diagonal shortcut used by the
planner.  Every check reads a plan's operators and corrections through one
_PlanRuntime, which refuses an operator of the wrong dimension and any
correction that apply_correction refuses, naming the step and branch.
verify_plan's per-step checks apply each operator with apply_kraus and the
rest as literal matrix products, one np.matmul per product over the step's
stacked (branches, n, n) matrices; _spectra takes an exactly diagonal
reduced density matrix's sorted diagonal, LAPACK's eigvalsh answer bit for
bit, and sends anything else to one batched eigvalsh.  Its branch-path walk
and the trajectory sampler apply operators and corrections by row scaling
and index permutation of the full matrix, which gives the literal products'
values bit for bit (a product with a diagonal or permutation matrix adds
only exact zeros).  Both move batches of path prefixes as one array through
one kernel (_scale, _relabel); the walk expands a batch by all of a step's
branches in one pass, and keeps a path table: each prefix's running branch
sums, each path's deviation.  Trajectory sampling draws from per-shot
counter-based streams, so a report depends only on (plan, shots, seed), in
one thread, in blocks of shots whose streams are one Philox array.  The
shots descend the path table of a report that walked this very plan, or else
walk chunks of distinct path prefixes a step at a time, so that shots
sharing a prefix share its arithmetic; one choice rule serves both.
run_trajectory is the prefix walk over a block of one shot.  Every shot's
draws, path and final deviation are bit-identical to walking that shot alone
with numpy's own Philox stream, the reference the tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .ladder import LadderPlan
from .schmidt import EPS_NORM, EPS_ZERO, MAX_ORACLE_DIM
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


def _integer_type(kind: type) -> bool:
    """Whether kind is a Python or numpy integer type, bool excluded."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_permutation(perm: tuple, n: int) -> bool:
    """Whether perm holds integers, not bools, that permute 0..n-1."""
    return all(map(_integer_type, set(map(type, perm)))) and sorted(perm) == list(range(n))


def apply_correction(state: FullState, perm) -> FullState:
    """Relabel basis states on both parties: index j becomes perm[j].
    ValidationError unless perm is a permutation of 0..n-1 of integers."""
    n, perm = state.n, tuple(perm)
    if not _is_permutation(perm, n):
        raise ValidationError(f"correction {perm} is not a permutation of 0..{n - 1}")
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


def _check_step(k, step, scales, invs, psi: FullState, next_matrix, next_spectrum) -> StepCheck:
    """One step's checks, from psi to the chain's next state.

    scales and invs are the step's arrays in the plan's _PlanRuntime, which
    checked them.  Each outcome is applied with apply_kraus, the literal
    reference, so a branch's probability, its zero-probability case and the
    check on its post state are apply_kraus's own (perfbench's tracer also
    counts these calls).  The rest are literal matrix products on the
    step's stacked (branches, n, n) operators, permutation matrices and post
    states, one np.matmul each; the reduced spectra are _spectra's.  numpy
    multiplies and diagonalises each matrix of a stack as it does a lone
    one, so the values are those of apply_correction and reduced_spectrum
    branch by branch, and every corrected state meets FullState's checks.
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
    ops[:, :: n + 1] = scales.reshape(count, n)
    ops = ops.reshape(count, n, n)
    # Summed branch by branch, in branch order.
    total = np.zeros((n, n))
    for square in np.matmul(ops.transpose(0, 2, 1), ops):
        total += square
    total -= np.eye(n)
    completeness_dev = float(np.abs(total, out=total).max())
    prob_sum_dev = abs(sum(br.prob for br in branches) - 1.0)
    # perms[i] has a one at (t, j) for each j -> t of branch i's correction,
    # that is at (t, invs[i, t]).
    perms = np.zeros((count, n, n))
    perms[np.arange(count)[:, None], np.arange(n), invs] = 1.0
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

    Reads the plan's operators and corrections once, into one _PlanRuntime,
    whatever path_limit is.  Verifies per-index completeness, branch
    probabilities, post-correction states and reduced spectra against the
    chain (_check_step): apply_kraus per branch, then literal matrix
    products stacked over the step's branches, with the values of the
    per-branch apply_kraus, apply_correction and reduced_spectrum.  A
    reduced density matrix that is exactly diagonal takes its sorted
    diagonal as its spectrum, which is eigvalsh's answer bit for bit; any
    other goes to eigvalsh (_spectra).  Then walks every branch path end to
    end (when their number is within path_limit) on full amplitude
    matrices, by row scaling and index permutation (_walk_paths); the path
    check equals, bit for bit, that of walking each path with apply_kraus
    and apply_correction.  The runtime and the walk's path table stay on
    the report, outside its fields, for sample_trajectories to reuse.

    Deviations are reported, not raised.  A plan that cannot be applied at
    all raises, naming the step and branch: DimensionMismatch for an
    operator of the wrong dimension, ValidationError for a correction that
    apply_correction would refuse.  ValidationError also for an outcome of
    zero probability and for a path_limit that is not an integer.
    """
    path_limit = _integer("path_limit", path_limit)
    path_count = math.prod(len(step.branches) for step in plan.steps)
    # Built first, so a malformed correction is named before any check runs.
    runtime = _PlanRuntime(plan)
    layouts = plan.chain.layouts
    step_checks = []
    worst = 0.0
    # Every comparison is dev <= tolerance, so that a NaN deviation fails.
    passed = True
    for k, step in enumerate(plan.steps):
        psi = FullState.from_layout(layouts[k])
        next_matrix = np.diag(np.asarray(layouts[k + 1], dtype=float))
        next_spectrum = np.asarray(plan.chain.states[k + 1].squares)
        check = _check_step(k, step, *runtime.steps[k], psi, next_matrix, next_spectrum)
        for b in check.branch_checks:
            worst = max(worst, b.prob_dev, b.post_state_dev, b.spectrum_dev)
            passed &= b.prob_dev <= TOL_PROB and b.post_state_dev <= TOL_STATE
            passed &= b.spectrum_dev <= TOL_SPECTRUM
        step_checks.append(check)
        worst = max(worst, check.completeness_dev, check.prob_sum_dev)
        passed &= check.completeness_dev <= TOL_COMPLETENESS
        passed &= check.prob_sum_dev <= TOL_PROB_SUM

    table = None
    if path_count <= path_limit:
        total_prob, max_final_dev, bounds, devs = _walk_paths(runtime)
        table = _PathTable(bounds, devs)
    else:
        # Too many paths: per-step sums multiply to the total path probability.
        total_prob = math.prod(sum(br.prob for br in step.branches) for step in plan.steps)
        max_final_dev = 0.0
    path = PathCheck(
        enumerated=table is not None,
        path_count=path_count,
        total_prob_dev=abs(total_prob - 1.0),
        max_final_dev=max_final_dev,
        all_reach_target=max_final_dev <= TOL_PATH,
    )
    worst = max(worst, path.total_prob_dev, path.max_final_dev)
    passed &= path.total_prob_dev <= TOL_PATH and path.all_reach_target
    report = VerificationReport(
        step_checks=tuple(step_checks),
        path_check=path,
        passed=passed,
        max_deviation=worst,
    )
    # Outside the fields, so eq, repr and hash see the checks alone.
    object.__setattr__(report, "_runtime", runtime)
    object.__setattr__(report, "_paths", table)
    return report


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
    """A plan's operators and corrections as arrays, the oracle's one
    reader of them: for _check_step, _walk_paths and _sample_block.  It
    keeps the plan it read, so that sample_trajectories reuses the one on a
    verify_plan report only for that very plan.

    Per step, views of one array each for the whole plan: the operators'
    diagonals as columns, (branches, n, 1), so that a product scales rows,
    and the inverse corrections, (branches, n), which the walks index by.
    An operator of the wrong dimension raises DimensionMismatch, and a
    correction that fails apply_correction's rule (_is_permutation)
    ValidationError, each naming the step and branch.
    """

    def __init__(self, plan: LadderPlan):
        self.plan = plan
        self.start = np.diag(np.asarray(plan.chain.layouts[0], dtype=float))
        self.target = np.diag(np.asarray(plan.chain.layouts[-1], dtype=float))
        n = len(self.start)
        branches, ends = [], []
        for k, step in enumerate(plan.steps):
            for i, br in enumerate(step.branches):
                if br.op.n != n:
                    raise DimensionMismatch(
                        f"step {k} branch {i}: operator dim {br.op.n} vs state dim {n}"
                    )
                if not _is_permutation(br.correction, n):
                    raise ValidationError(
                        f"step {k} branch {i}: correction {tuple(br.correction)} "
                        f"is not a permutation of 0..{n - 1}"
                    )
            branches += step.branches
            ends.append(len(branches))
        diags = np.array([br.op.diag for br in branches], dtype=float).reshape(-1, n, 1)
        invs = np.argsort(np.reshape([br.correction for br in branches], (-1, n)), axis=1)
        self.steps = [(diags[a:b], invs[a:b]) for a, b in zip([0, *ends], ends)]


# Matrix entries walked as one array: a batch holds this many entries' worth
# of path prefixes (32 at n = 16, 8 at n = 32, 2 at n = 64), at least one.
# Pending chunks keep their matrices until their subtrees come up, so the
# walk's memory grows with this times the plan's depth, whatever n is.  An
# expansion holds a batch's children and their row-scaled originals, each
# as many entries as this times the step's branches.  At this budget the
# walk peaks at about 0.95 MB on an n = 16 plan of depth 8, under the
# 1.1 MB that serialising an n = 48 transcript takes; at twice it, 1.7 MB.
PATH_BATCH_ENTRIES = 8192

# The sampler's chunks, by the same measure (16 prefixes at n = 64, 64 at
# n = 32, 256 at n = 16).  A few chunks wait at each step of the plan, so the
# walk's memory grows with this times the plan's depth, whatever the shot
# count.  Shots split into distinct prefixes within a few steps, so small
# chunks pay numpy's per-call overhead many times over: at a quarter of this
# budget an n = 32 plan makes three times as many chunk steps and samples
# about 1.4 times slower, for about 1 MB less peak memory over 20,000 shots.
SAMPLE_BATCH_ENTRIES = 65536


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


@dataclass(frozen=True, eq=False)
class _PathTable:
    """A plan's branch paths, as verify_plan's walk computed them.
    bounds[k] has a row per prefix of k branches, in lexicographic order
    (prefix p then branch b is prefix p * branches + b): the running sums
    of step k's outcome probabilities.  devs has each path's final
    deviation, in the same order."""

    bounds: tuple[np.ndarray, ...]
    devs: np.ndarray


def _target_back(target: np.ndarray, invs: np.ndarray) -> np.ndarray:
    """P^T T P for the permutation matrix P of each inverse correction:
    entry (a, c) is T's at the place _relabel moves entry (a, c) to."""
    n = len(target)
    perms = np.argsort(invs, axis=1)
    return target.reshape(-1)[_gather_indices(perms)].reshape(len(perms), n, n)


def _leaf_devs(out: np.ndarray, prob: np.ndarray, back: np.ndarray) -> np.ndarray:
    """The G * B final deviations of _scale's (G, B) blocks, in place: each
    matrix over its probability's square root, less its branch's
    _target_back, holds the entries of _relabel's post state less the
    target, moved, so its largest absolute entry is the same number."""
    np.divide(out, np.sqrt(prob)[:, :, None, None], out=out)
    np.subtract(out, back, out=out)
    return np.abs(out, out=out).reshape(prob.size, -1).max(axis=1)


def _walk_paths(runtime: _PlanRuntime):
    """Total probability and worst final deviation over every branch path,
    and the path table's bounds and per-path deviations (_PathTable).

    Depth first over batches of path prefixes, each batch one C-contiguous
    (B, n, n) array of amplitude matrices in ascending path order, with its
    first prefix's index.  A batch is expanded by all of its step's branches
    at once: one _scale gives the (B, branches) block of row-scaled matrices
    and their probabilities, whose running sums fill the batch's rows of the
    step's bounds.  Before the last step, one _relabel gives the post states
    (apply_kraus then apply_correction) as (B * branches, n, n) children in
    prefix-major order, which go back on the stack in chunks (copies, so a
    pending chunk does not keep its siblings alive), the last chunk on top.
    The last step's children are complete paths, never relabelled: _leaf_devs
    compares them with the target relabelled back (_target_back, built once).
    Complete paths come off in descending order, the literal stack walk's,
    and their probabilities are summed one by one in that order, since a
    pairwise sum would round differently.
    """
    depth = len(runtime.steps)
    n = len(runtime.start)
    batch = max(1, PATH_BATCH_ENTRIES // (n * n))
    # The start state meets FullState's checks, as in the literal walk.
    start = FullState(runtime.start).matrix
    if not depth:
        # The one path is the start itself.
        dev = np.abs(start - runtime.target).reshape(1, n * n).max(axis=1)
        return 1.0, max(0.0, float(dev[0])), (), dev
    widths = [len(scales) for scales, _ in runtime.steps]
    bounds = tuple(np.empty((math.prod(widths[:k]), w)) for k, w in enumerate(widths))
    path_probs = np.empty(math.prod(widths))
    devs = np.empty(len(path_probs))
    back = _target_back(runtime.target, runtime.steps[-1][1])
    stack = [(0, 0, start[None], np.ones(1))]
    max_dev = 0.0
    while stack:
        k, first, states, acc = stack.pop()
        scales, invs = runtime.steps[k]
        out, prob = _scale(states[:, None], scales)
        # Freed before the children are made.
        del states
        if not (np.all(prob > EPS_ZERO) and np.all(np.isfinite(prob))):
            # FullState refuses the post state apply_kraus gives here.
            raise ValidationError("amplitude matrix is not normalized")
        bounds[k][first : first + len(prob)] = np.add.accumulate(prob, axis=1)
        acc = (acc[:, None] * prob).reshape(-1)
        first *= len(scales)
        if k + 1 < depth:
            states = np.empty((prob.size, n, n))
            # Branch b's positions, b matrices into each block.
            gather = _gather_indices(invs) + n * n * np.arange(len(invs))[:, None]
            _relabel(out, prob, gather.ravel(), states)
            # Freed before the children are copied.
            del out
            # Appended unnamed: a name would keep the last chunk alive.
            for lo in range(0, len(states), batch):
                stack.append(
                    (k + 1, first + lo, states[lo : lo + batch].copy(), acc[lo : lo + batch])
                )
            continue
        # Complete paths, compared in place, unrelabelled.
        path_probs[first : first + len(acc)] = acc
        if len(acc):
            devs[first : first + len(acc)] = dev = _leaf_devs(out, prob, back)
            max_dev = max(max_dev, float(np.max(dev)))
        # Freed before the next batch is scaled.
        del out
    if not len(path_probs):
        return 0.0, 0.0, bounds, devs
    return float(np.add.accumulate(path_probs[::-1])[-1]), max_dev, bounds, devs


def _sample_block(runtime: _PlanRuntime, draws: np.ndarray):
    """Walk one block of shots, where draws[s, k] is shot s's draw at step k.

    Returns the block's complete paths in order of their first shot, as a
    (paths, depth) array of branch indices, with each path's shot count and
    final deviation from the target.

    Level-synchronous within a chunk, depth first over chunks.  A chunk is
    one C-contiguous (G, n, n) array of distinct path prefixes plus the
    shots that share them, each shot carrying its prefix's index.  Every
    outcome's probabilities come from scaling the whole chunk, as _scale
    does, in one scratch array per chunk step: the row-scaled products, then
    their squares written over them, then the pairwise sum of each C-ordered
    row of n*n squares; the same operations on the same layout as _scale's,
    so the same bits.  Each shot takes its branch from the running sums of
    those probabilities (_choose), and post states (_relabel) are made only for the (branch, prefix) pairs that
    some shot takes, from a copy of those prefixes scaled again in place.
    The second multiply stays: keeping every outcome's scaled chunk for the
    children holds G * branches matrices at once, and measured slower at
    n = 32 than scaling again the few prefixes that are taken.
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
        g = len(states)
        # _scale's probabilities, each outcome's in the same scratch array.
        buf = np.empty_like(states)
        probs = []
        for scale in scales:
            np.multiply(scale, states, out=buf)
            np.multiply(buf, buf, out=buf)
            probs.append(np.add.reduce(buf.reshape(g, n * n), axis=-1))
        # Freed before the children are made.
        del buf
        chosen = _choose(draws[shots, k], np.add.accumulate(probs)[:, group])
        choice[shots, k] = chosen
        # One child per (branch, prefix) pair taken, branch-major.
        key = chosen * g + group
        slot = np.zeros(len(scales) * g, dtype=np.intp)
        slot[key] = 1
        taken = np.flatnonzero(slot)
        slot[taken] = np.arange(len(taken))
        child = slot[key]
        branch, rows = np.divmod(taken, g)
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
                    out = states[r]
                    np.multiply(scales[i], out, out=out)
                    _relabel(out, probs[i][r], gather, kids[a - lo : b - lo])
            part = slice(cuts[j], cuts[j + 1])
            stack.append((k + 1, kids, shots[part], child[part] - lo))
    return _leaves(choice, *(np.concatenate(x) for x in zip(*leaves)))


def _choose(draws: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each shot's branch: bounds holds a shot's running probability sums
    in a column, in branch order, and it takes the first branch whose sum
    exceeds its draw times the total (the last sum), else the last."""
    u = draws * bounds[-1]
    chosen = np.full(len(u), len(bounds) - 1)
    # Assigning from the last branch down leaves the first one.
    for i in reversed(range(len(bounds))):
        chosen[u < bounds[i]] = i
    return chosen


def _leaves(choice: np.ndarray, first: np.ndarray, hits: np.ndarray, dev: np.ndarray):
    """Paths as their first shots' rows of choice, ordered by first shot."""
    order = np.argsort(first)
    return choice[first[order]], hits[order], dev[order]


def _descend(table: _PathTable, draws: np.ndarray):
    """_sample_block's answer read off a path table: each shot's prefix
    row holds the bits _sample_block computes from the prefix's matrix."""
    count, depth = draws.shape
    widest = max((b.shape[1] for b in table.bounds), default=1)
    choice = np.empty((count, depth), dtype=np.min_scalar_type(widest))
    prefix = np.zeros(count, dtype=np.intp)
    for k, bounds in enumerate(table.bounds):
        chosen = _choose(draws[:, k], bounds[prefix].T)
        choice[:, k] = chosen
        prefix = prefix * bounds.shape[1] + chosen
    paths, first, hits = np.unique(prefix, return_index=True, return_counts=True)
    return _leaves(choice, first, hits, table.devs[paths])


def _refuse_empty_steps(plan: LadderPlan) -> None:
    """The walks that draw one outcome per step refuse a step without outcomes."""
    for k, step in enumerate(plan.steps):
        if not step.branches:
            raise ValidationError(f"step {k} has no outcomes to sample")


def _sampling_runtime(plan: LadderPlan) -> _PlanRuntime:
    """_PlanRuntime for the walks that draw one outcome per step."""
    _refuse_empty_steps(plan)
    return _PlanRuntime(plan)


def _integer(name: str, value) -> int:
    """value as a Python int: a Python or numpy integer, not a bool."""
    if not _integer_type(type(value)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def run_trajectory(plan: LadderPlan, seed: int, shot_index: int) -> TrajectoryRecord:
    """Sample one complete run through the plan: shot shot_index of
    sample_trajectories(plan, shots, seed), walked as a block of one shot."""
    seed = _integer("seed", seed)
    # Philox keys the shot's stream with its index as one uint64 word.
    if not (_integer_type(type(shot_index)) and 0 <= shot_index < 1 << 64):
        raise ValidationError(f"shot_index must be an integer in [0, 2**64), got {shot_index!r}")
    runtime = _sampling_runtime(plan)
    draws = _shot_draws(seed, shot_index, 1, len(runtime.steps))
    paths, _, dev = _sample_block(runtime, draws)
    final_dev = float(dev[0])
    return TrajectoryRecord(
        seed=seed,
        shot_index=int(shot_index),
        path=tuple(enumerate(paths[0].tolist())),
        final_dev=final_dev,
        matched_target=final_dev <= TOL_TRAJECTORY,
    )


def sample_trajectories(
    plan: LadderPlan, shots: int, seed: int, *, verified: VerificationReport | None = None
) -> FrequencyReport:
    """Monte Carlo sample of plan executions.

    Every shot owns its own counter-based stream, so identical (plan,
    shots, seed) produce identical reports.  Shots go in blocks of
    SHOT_BLOCK, and one pass computes a block's draws (_shot_draws).  When
    verified is verify_plan's report on this very plan object and walked
    every branch path, the shots descend its path table (_descend) and touch
    no matrix; otherwise one walk over chunks of path prefixes
    (_sample_block) computes each distinct prefix once for all shots that
    share it, on the report's _PlanRuntime when it is this plan's.  Either
    way the report aggregates run_trajectory over shots 0 .. shots - 1,
    with paths in order of their first shot, and equals, bit for bit, the
    aggregate of walking each shot alone.
    """
    shots = _integer("shots", shots)
    if shots < 1:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    seed = _integer("seed", seed)
    if not (verified is None or isinstance(verified, VerificationReport)):
        raise ValidationError(f"verified must be a VerificationReport, got {verified!r}")

    _refuse_empty_steps(plan)
    runtime = getattr(verified, "_runtime", None)
    if runtime is None or runtime.plan is not plan:
        runtime, table = _PlanRuntime(plan), None
    else:
        table = verified._paths
    if table is not None:
        walk = functools.partial(_descend, table)
    else:
        walk = functools.partial(_sample_block, runtime)
    depth = len(plan.steps)
    path_counts: dict = {}
    branch_counts = [np.zeros(len(s.branches), dtype=np.int64) for s in plan.steps]
    matches = 0
    max_dev = 0.0
    for first in range(0, shots, SHOT_BLOCK):
        count = min(SHOT_BLOCK, shots - first)
        # The draws go in unnamed, so that they are freed with the block.
        paths, hits, dev = walk(_shot_draws(seed, first, count, depth))
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
