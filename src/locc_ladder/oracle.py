"""Brute-force verification layer.

States live here as full n x n amplitude matrices in the product basis, so a
defective operator cannot hide behind the diagonal shortcut used by the
planner.  Every entry point reads a plan through one _PlanRuntime, which
refuses more steps than links, an operator of the wrong dimension and any
correction that apply_correction refuses (one rule,
_inverse_permutations), naming the step and branch of the last two;
one vectorised pass over the whole plan checks those, and a per-branch loop
runs only to name the first fault.  verify_plan's
per-step checks apply each operator with apply_kraus and the rest as literal
matrix products, one np.matmul per product over the step's stacked
(branches, n, n) matrices.
Their fixed cost is kept near that of the products: each chain layout's
matrix is built once and shared by the two steps it joins, and FullState's
norm, apply_kraus and the completeness sum run numpy's own arithmetic
without its Python-level wrappers (np.linalg.norm, np.sum, np.diag,
np.eye): the same dot product, reduction, flat diagonal and branch-order
sum, so the values are the wrapped forms' bit for bit.  _spectra takes an
exactly diagonal reduced density matrix's sorted diagonal, LAPACK's eigvalsh
answer bit for bit, and sends anything else to one batched eigvalsh.  Its
branch-path walk and the trajectory sampler apply operators and corrections
by row scaling and index permutation of the full matrix, which gives the
literal products' values bit for bit (a product with a diagonal or
permutation matrix adds only exact zeros).  Both move batches of path
prefixes as one array through one kernel (_scale, _relabel); the walk
expands a batch by all of a step's branches in one pass, and keeps a path
table on the runtime: each prefix's running branch sums, each path's
deviation.  Trajectory sampling draws from one counter-based Philox
stream per seed, each shot at its own counter offset, so a report depends
only on (plan, shots, seed), in one thread, in blocks of shots whose draws
are one call to numpy's generator.  One
intake (_sampler) picks the block walk: the shots descend the path table of
a report that walked this very plan, or else walk chunks of distinct path
prefixes a step at a time, so that shots sharing a prefix share its
arithmetic; one choice rule serves both.  run_trajectory is the prefix walk
over a block of one shot.  Every shot's
draws, path and final deviation are bit-identical to walking that shot alone
on its own numpy Philox generator, the reference the tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain as concat

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .ladder import LadderPlan
from .schmidt import EPS_NORM, EPS_ZERO, MAX_ORACLE_DIM, _is_integer_kind
from .solvers import DiagonalKraus

# verify_plan's thresholds, each check's by the name the transcript gives it.
TOLERANCES = {
    "completeness": 1e-12, "prob_sum": 1e-12,
    "prob": 1e-10, "post_state": 1e-10, "spectrum": 1e-10, "path": 1e-10,
}
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
        if not abs(_frobenius(m) - 1.0) <= EPS_NORM:
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


def _frobenius(m: np.ndarray) -> float:
    """float(np.linalg.norm(m)), bit for bit.  For a float64 matrix, or an
    integer or bool one that np.linalg.norm first casts to float64, this is
    its own arithmetic without its wrapper: the square root of the dot
    product of the entries in memory order.  Other dtypes go to it."""
    v = np.asarray(m).ravel(order="K")
    if v.dtype.kind in "biu":
        v = v.astype(float)
    if v.dtype != np.float64:
        return float(np.linalg.norm(m))
    return math.sqrt(v.dot(v))


def _diagonal(values) -> np.ndarray:
    """np.diag(np.asarray(values, dtype=float)) for a sequence of values,
    as np.diag builds it: zeros, then the flat diagonal."""
    n = len(values)
    m = np.zeros((n, n))
    m.flat[:: n + 1] = np.asarray(values, dtype=float)
    return m


def apply_kraus(state: FullState, op: DiagonalKraus, party: str = "A"):
    """Apply one measurement operator; returns (post state, probability).

    Zero-probability outcomes return the unnormalized zero state with
    probability 0.
    """
    if op.n != state.n:
        raise DimensionMismatch(f"operator dim {op.n} vs state dim {state.n}")
    if party not in ("A", "B"):
        raise ValidationError(f"party must be 'A' or 'B', got {party!r}")
    m = _diagonal(op.diag)
    out = m @ state.matrix if party == "A" else state.matrix @ m.T
    # np.sum's own reduction: add.reduce over every entry.
    prob = float((out * out).sum())
    if prob <= EPS_ZERO:
        # Unnormalizable outcome: hand back the raw (near-)zero state,
        # bypassing the unit-norm invariant on purpose.
        zero = object.__new__(FullState)
        object.__setattr__(zero, "matrix", out)
        out.flags.writeable = False
        return zero, 0.0
    post = FullState(out / math.sqrt(prob))
    return post, prob


def _inverse_permutations(perms: list, n: int) -> np.ndarray | None:
    """The inverses of perms as the rows of one array, or None unless every
    one holds integers, not bools, that permute 0..n-1: the oracle's one
    permutation rule, in one pass over all (integer types; length n; sorted)."""
    try:
        if not {n}.issuperset(map(len, perms)):
            return None
        if not all(map(_is_integer_kind, set(map(type, concat.from_iterable(perms))))):
            return None
        # An integer too large for intp raises OverflowError.
        labels = np.array(perms, dtype=np.intp).reshape(-1, n)
    except (OverflowError, TypeError):
        return None
    invs = np.argsort(labels, axis=1)
    if not (np.take_along_axis(labels, invs, axis=1) == np.arange(n)).all():
        return None
    return invs


def apply_correction(state: FullState, perm) -> FullState:
    """Relabel basis states on both parties: index j becomes perm[j].
    ValidationError unless perm is a permutation of 0..n-1 of integers."""
    n, perm = state.n, tuple(perm)
    if _inverse_permutations([perm], n) is None:
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


def _completeness_dev(scales: np.ndarray) -> float:
    """Largest entry of |sum of K^T K - I| over a step's operators, whose
    diagonals scales holds as (branches, n, 1) columns: the literal products,
    one np.matmul over their stack, summed in branch order.  A reduction over
    the stack's first axis adds each product to the running total in turn,
    the order of a loop over the branches, so the bits are that loop's."""
    count, n = len(scales), scales.shape[1]
    ops = np.zeros((count, n * n))
    ops[:, :: n + 1] = scales.reshape(count, n)
    ops = ops.reshape(count, n, n)
    total = np.add.reduce(np.matmul(ops.transpose(0, 2, 1), ops), axis=0)
    # Less the identity: off the diagonal, subtracting 0.0 changes nothing.
    total.flat[:: n + 1] -= 1.0
    return float(np.abs(total, out=total).max())


def _check_step(k, step, scales, invs, psi: FullState, next_matrix, next_spectrum) -> StepCheck:
    """One step's checks, from psi to the chain's next state.

    scales and invs are the step's arrays in the plan's _PlanRuntime, which
    checked them; psi's matrix is the previous step's next_matrix, shared,
    not rebuilt.  Each outcome is applied with apply_kraus, the literal
    reference, so a branch's probability, its zero-probability case and the
    check on its post state are apply_kraus's own (perfbench's tracer also
    counts these calls).  The rest are literal matrix products on the
    step's stacked (branches, n, n) operators, permutation matrices and post
    states, one np.matmul each (_completeness_dev for the operators); the
    reduced spectra are _spectra's.  numpy multiplies and diagonalises each
    matrix of a stack as it does a lone one, so the values are those of
    apply_correction and reduced_spectrum branch by branch, and every
    corrected state meets FullState's checks.  It calls none of numpy's
    Python-level wrappers, only the arithmetic they would run.
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
    completeness_dev = _completeness_dev(scales)
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

    Reads the plan once, into one _PlanRuntime, whatever path_limit is,
    and builds each layout's diagonal matrix once:
    the runtime's start is step 0's state, and step k's next state is step
    k + 1's, the same array with the same FullState check, so only the
    current pair is held.  Verifies per-index completeness, branch
    probabilities, post-correction states and reduced spectra against the
    chain's layouts, a layout's spectrum being its squares sorted
    (_check_step): apply_kraus per branch, then literal matrix
    products stacked over the step's branches, with the values of the
    per-branch apply_kraus, apply_correction and reduced_spectrum.  A
    reduced density matrix that is exactly diagonal takes its sorted
    diagonal as its spectrum, which is eigvalsh's answer bit for bit; any
    other goes to eigvalsh (_spectra).  Then walks every branch path end to
    end (when their number is within path_limit) on full amplitude
    matrices, by row scaling and index permutation (_walk_paths); the path
    check equals, bit for bit, that of walking each path with apply_kraus
    and apply_correction.  The runtime, with the walk's path table, stays on
    the report, outside its fields, for sample_trajectories to reuse.

    Deviations are reported, not raised, for a step without outcomes or
    fewer steps than links too.  A plan that _PlanRuntime refuses raises:
    DimensionMismatch for an operator of the wrong dimension, and
    ValidationError for a bad correction (each naming the step and branch)
    or more steps than links.  ValidationError also for an outcome of zero
    probability and a non-integer path_limit.  max_deviation is NaN when any
    deviation is.
    """
    path_limit = _integer("path_limit", path_limit)
    path_count = math.prod(len(step.branches) for step in plan.steps)
    # Built first, so a malformed plan is refused before any check runs.
    runtime = _PlanRuntime(plan)
    layouts = plan.chain.layouts
    step_checks = []
    # (tolerance name, deviation) of every check, in the order they run.
    judged = []
    matrix = runtime.start
    for k, step in enumerate(plan.steps):
        psi = FullState(matrix)
        next_matrix = _diagonal(layouts[k + 1])
        # The next layout's reduced spectrum: its squares, sorted descending.
        squares = next_matrix.diagonal() ** 2
        squares.sort()
        check = _check_step(k, step, *runtime.steps[k], psi, next_matrix, squares[::-1])
        matrix = next_matrix
        for b in check.branch_checks:
            judged += ("prob", b.prob_dev), ("post_state", b.post_state_dev)
            judged.append(("spectrum", b.spectrum_dev))
        judged += ("completeness", check.completeness_dev), ("prob_sum", check.prob_sum_dev)
        step_checks.append(check)

    if path_count <= path_limit:
        total_prob, max_final_dev, bounds, devs = _walk_paths(runtime)
        runtime.paths = bounds, devs
    else:
        # Too many paths: per-step sums multiply to the total path probability.
        total_prob = math.prod(sum(br.prob for br in step.branches) for step in plan.steps)
        max_final_dev = 0.0
    path = PathCheck(
        enumerated=runtime.paths is not None,
        path_count=path_count,
        total_prob_dev=abs(total_prob - 1.0),
        max_final_dev=max_final_dev,
        all_reach_target=max_final_dev <= TOLERANCES["path"],
    )
    judged += ("path", path.total_prob_dev), ("path", path.max_final_dev)
    devs = [dev for _, dev in judged]
    report = VerificationReport(
        step_checks=tuple(step_checks),
        path_check=path,
        # dev <= tolerance fails a NaN deviation; max from 0.0 would skip it.
        passed=all(dev <= TOLERANCES[name] for name, dev in judged),
        max_deviation=math.nan if any(map(math.isnan, devs)) else max(0.0, *devs),
    )
    # Outside the fields, so eq, repr and hash see the checks alone.
    object.__setattr__(report, "_runtime", runtime)
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


def _shot_draws(seed: int, first_shot: int, count: int, depth: int) -> np.ndarray:
    """Uniform draws of shots first_shot .. first_shot + count - 1, as rows.

    Every shot of a seed reads one stream, numpy's Philox keyed by seed mod
    2^64, and shot s reads its ceil(depth / 4) four-word blocks after
    counter s * ceil(depth / 4): row i holds the first depth of those
    doubles for shot first_shot + i, the same in any block of shots.
    """
    blocks = -(-depth // 4)
    bitgen = np.random.Philox(key=seed % (1 << 64))
    # advance refuses a numpy integer delta.
    bitgen.advance(int(first_shot) * blocks)
    return np.random.Generator(bitgen).random((count, 4 * blocks))[:, :depth]


class _PlanRuntime:
    """A plan's operators and corrections as arrays: the oracle's one
    reader, refuser and memory of a plan.  It keeps the plan it read, so
    that sample_trajectories reuses a verify_plan report's runtime only for
    that very plan, and paths, None until verify_plan walks every path:
    then (bounds, devs), where bounds[k] has a row per prefix of k branches
    in lexicographic order (prefix p then branch b is p * branches + b),
    the running sums of step k's outcome probabilities, and devs each
    path's final deviation, in that order.

    ValidationError for more steps than the chain has links.
    Per step, views of one array each for the whole plan: the operators'
    diagonals as columns, (branches, n, 1), so that a product scales rows,
    and the inverse corrections, (branches, n), which the walks index by.
    An operator of the wrong dimension raises DimensionMismatch, and a
    correction that fails apply_correction's rule (_inverse_permutations)
    ValidationError, each naming the step and branch.  Every operator's
    dimension and every correction are checked in one pass over the whole
    plan; the per-branch loop runs only when that pass fails, to name the
    first fault with its step and branch, asking the same rule of one
    correction at a time.
    """

    def __init__(self, plan: LadderPlan):
        layouts = plan.chain.layouts
        if len(plan.steps) > plan.chain.l:
            raise ValidationError(f"plan has {len(plan.steps)} steps for a chain of {plan.chain.l} links")
        self.plan = plan
        self.paths = None
        self.start = _diagonal(layouts[0])
        self.target = _diagonal(layouts[-1])
        n = len(self.start)
        branches, ends = [], []
        for step in plan.steps:
            branches += step.branches
            ends.append(len(branches))
        diags = [br.op.diag for br in branches]
        invs = _inverse_permutations([br.correction for br in branches], n)
        if invs is None or not {n}.issuperset(map(len, diags)):
            # The one pass found a fault: name its first step and branch.
            for k, step in enumerate(plan.steps):
                for i, br in enumerate(step.branches):
                    if br.op.n != n:
                        raise DimensionMismatch(
                            f"step {k} branch {i}: operator dim {br.op.n} vs state dim {n}"
                        )
                    if _inverse_permutations([br.correction], n) is None:
                        raise ValidationError(
                            f"step {k} branch {i}: correction {tuple(br.correction)} "
                            f"is not a permutation of 0..{n - 1}"
                        )
        diags = np.array(diags, dtype=float).reshape(-1, n, 1)
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
# chunks pay numpy's per-call overhead many times over: over 20,000 shots of
# an n = 32 plan, a quarter of this budget makes about four times as many
# chunk steps and samples about 1.3 times slower, for 1.3 to 1.6 MB less
# peak memory.
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
    and the path table's bounds and per-path deviations (_PlanRuntime.paths).

    Depth first over batches of path prefixes, each batch one C-contiguous
    (B, n, n) array of amplitude matrices in ascending path order, with its
    first prefix's index.  A batch is expanded by all of its step's branches
    at once: one _scale gives the (B, branches) block of row-scaled matrices
    and their probabilities, whose running sums fill the batch's rows of the
    step's bounds.  Before the last step, one _relabel gives the post states
    (apply_kraus then apply_correction) as (B * branches, n, n) children in
    prefix-major order, which go back on the stack in chunks (copies, so a
    pending chunk does not keep its siblings alive), the last chunk on top;
    children that fit in one chunk go back as they are.
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
            if len(states) <= batch:
                # One chunk: no siblings to keep alive, so no copy.
                stack.append((k + 1, first, states, acc))
                continue
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
    Post states go back on the stack in as few parts as hold at most
    SAMPLE_BATCH_ENTRIES matrix entries each, their sizes differing by at
    most one, each its own array, so that a pending chunk does not keep its
    siblings alive.  A chunk never gains prefixes further down, so a
    remainder of a few prefixes beside full chunks would walk every later
    step for a few shots, each step at a full chunk step's fixed cost.  The
    arithmetic is that of walking each shot alone, operation for operation,
    and results land in per-shot and per-path arrays, so the order in which
    chunks are walked does not matter.
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
        # Even parts, so that no remainder of a few prefixes walks alone.
        parts = -(-len(taken) // batch)
        splits = [len(taken) * j // parts for j in range(parts + 1)]
        if parts > 1:
            # Shots sorted by child, so each part's shots are one slice.
            order = np.argsort(child)
            shots, child = shots[order], child[order]
        cuts = np.searchsorted(child, splits).tolist()
        gathers = _gather_indices(invs)
        for j, (lo, hi) in enumerate(zip(splits, splits[1:])):
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


def _descend(runtime: _PlanRuntime, draws: np.ndarray):
    """_sample_block's answer read off the runtime's path table: each
    shot's prefix row holds the bits _sample_block computes from the
    prefix's matrix."""
    count, depth = draws.shape
    table, devs = runtime.paths
    widest = max((b.shape[1] for b in table), default=1)
    choice = np.empty((count, depth), dtype=np.min_scalar_type(widest))
    prefix = np.zeros(count, dtype=np.intp)
    for k, bounds in enumerate(table):
        chosen = _choose(draws[:, k], bounds[prefix].T)
        choice[:, k] = chosen
        prefix = prefix * bounds.shape[1] + chosen
    paths, first, hits = np.unique(prefix, return_index=True, return_counts=True)
    return _leaves(choice, first, hits, devs[paths])


def _sampler(plan: LadderPlan, verified: VerificationReport | None = None):
    """The block walk for plan's shots, which draw one outcome per step, so
    a step without outcomes is refused.  It descends the path table when
    verified's _PlanRuntime read this very plan and walked its paths
    (_descend); otherwise it walks the matrices (_sample_block), on that
    runtime when it read this plan, or else on a new one."""
    for k, step in enumerate(plan.steps):
        if not step.branches:
            raise ValidationError(f"step {k} has no outcomes to sample")
    runtime = getattr(verified, "_runtime", None)
    if runtime is None or runtime.plan is not plan:
        runtime = _PlanRuntime(plan)
    elif runtime.paths is not None:
        return functools.partial(_descend, runtime)
    return functools.partial(_sample_block, runtime)


def _integer(name: str, value) -> int:
    """value as a Python int; ValidationError unless _is_integer_kind(type(value))."""
    if not _is_integer_kind(type(value)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def run_trajectory(plan: LadderPlan, seed: int, shot_index: int) -> TrajectoryRecord:
    """Sample one complete run through the plan: shot shot_index of
    sample_trajectories(plan, shots, seed), walked as a block of one shot."""
    seed = _integer("seed", seed)
    if not (_is_integer_kind(type(shot_index)) and 0 <= shot_index < 1 << 64):
        raise ValidationError(f"shot_index must be an integer in [0, 2**64), got {shot_index!r}")
    paths, _, dev = _sampler(plan)(_shot_draws(seed, shot_index, 1, len(plan.steps)))
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

    Every shot owns its own counter range of the seed's Philox stream, so
    identical (plan, shots, seed) produce identical reports.  Shots go in
    blocks of SHOT_BLOCK, and one generator call draws a block
    (_shot_draws).  The block walk is _sampler's: when verified is verify_plan's report on this
    very plan object and walked every branch path, the shots descend the
    path table on its _PlanRuntime (_descend) and touch no matrix;
    otherwise one walk over chunks of path prefixes (_sample_block)
    computes each distinct prefix once for all shots that share it, on the
    report's runtime when it is this plan's.  Either
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

    walk = _sampler(plan, verified)
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
