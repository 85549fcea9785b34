"""Seeded document generators for the three benchmark workloads.

Inputs are made here, from the benchmark's own seed and with the benchmark's
own arithmetic, never with ``locc_ladder.sampling`` or any other library
code, so a library change cannot move the workload.  Every document is a
valid problem statement in squared coefficients (sorted, non-negative,
normalised); how the program answers it is the program's business.

A workload is a fixed list of ``Doc`` values.  The runner replays the list in
passes, so one seed always yields the same documents in the same order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Same comparison tolerance the paper's tail-sum test is stated with.
TAIL_TOL = 1e-12

# plan-walk.  Counts, not probabilities, so every seed gives the same
# composition and only the numbers differ.  Per n, the random pairs are split
# into pairs whose ladder exists (their plans are verified and their branch
# paths walked) and pairs the ladder refuses, in the share the unstratified
# generator (_walk_pair with want_ladder=None) produces.  The shares were
# measured on 300 pairs per n, alphas cycled; n=3 is always feasible.
WALK_RANDOM_N = range(3, 17)
WALK_ALPHAS = (0.5, 1.0, 5.0)
WALK_PER_N = 72
WALK_LADDER_SHARE = {
    3: 1.0, 4: 0.64, 5: 0.72, 6: 0.39, 7: 0.43, 8: 0.24, 9: 0.27,
    10: 0.16, 11: 0.16, 12: 0.067, 13: 0.073, 14: 0.05, 15: 0.067, 16: 0.05,
}
# The other kinds are not drawn from traffic; each count gives its kind a
# steady presence without letting it take over the run's time:
# 9 sparse pairs at each of 4 sizes, 6 not-majorized pairs per random n
# (cheap refusals, exit 2), and 60 degenerate pairs per flavour.  The
# document count as a whole is set by the 90th-percentile latency, which
# moves with the seed's draw of path counts less the more documents there are.
WALK_SPARSE_N = (24, 32, 40, 48)
WALK_SPARSE = 36
WALK_NOT_MAJORIZED = 84
WALK_DEGENERATE = 180
WALK_DEGENERATE_N = range(4, 11)
# Feasible, yet its first window is zero in source and target alike: the
# smallest case of the zero-weight-window crash (ZeroBlockNorm, exit 1).
ZERO_WINDOW_PAIR = ([0.4, 0.3, 0.3, 0.0, 0.0, 0.0], [0.7, 0.3, 0.0, 0.0, 0.0, 0.0])

# plan-dense: DENSE_PER_N pairs per n, split into pairs whose ladder exists
# and pairs it refuses in the share the unstratified generator produces
# (measured on 200 every-step-moves pairs per n).
DENSE_PER_N = 25
DENSE_LADDER_SHARE = {24: 0.72, 32: 0.665, 48: 0.5, 64: 0.365}
DENSE_ALPHA = 5.0
DENSE_MOVE_SHARE = 0.85

# simulate: plan dimension -> shots per document.  Shots are sized so that
# sampling, not the verify_plan run the command also makes, dominates.  Four
# pairs per n keep the percentiles from resting on single plans: the n=16
# documents are the slowest and set the 90th percentile, and their
# verify_plan cost follows the plan's path count (25 to 220 ms).
SIMULATE_SHOTS = {4: 750, 10: 600, 16: 2200, 32: 190}
SIMULATE_PAIRS_PER_N = 4
SIMULATE_WORKERS = (1, 2)

PLAN_ARGS = ("plan", "--squared", "--format", "machine")


@dataclass(frozen=True)
class Doc:
    """One CLI call: argv, the stdin text, and what the generator knows."""

    kind: str
    n: int
    argv: tuple[str, ...]
    text: str
    majorized: bool
    # Worst tail margin over the ladder's links (ladder_link_margin), for
    # majorized pairs; None otherwise.
    ladder_margin: float | None

    @property
    def payload(self) -> dict:
        return json.loads(self.text)


def tail_margins(source_sq, target_sq) -> np.ndarray:
    """margins[k] = sum(source[k:]) - sum(target[k:]) over squared entries."""
    s = np.asarray(source_sq, dtype=float)
    t = np.asarray(target_sq, dtype=float)
    return np.cumsum((s - t)[::-1])[::-1]


def is_majorized(source_sq, target_sq, tol: float = TAIL_TOL) -> bool:
    """Nielsen's condition: the target majorizes the source."""
    m = tail_margins(source_sq, target_sq)
    return bool(abs(m[0]) <= tol and np.all(m[1:] >= -tol))


def ladder_layouts(source_sq, target_sq) -> list[np.ndarray]:
    """Squared layouts of the smallest-first ladder (3-wide blocks).

    Rebuilt from their defining tail sums: each intermediate keeps the
    source prefix, copies the target suffix and inserts one closing
    coefficient, two target coefficients further per step.
    """
    s = np.asarray(source_sq, dtype=float)
    t = np.asarray(target_sq, dtype=float)
    layouts = [s]
    p = len(s) - 2  # 1-based position of the closing coefficient
    while p > 1:
        tilde = max(float(s[p - 1 :].sum() - t[p:].sum()), 0.0)
        layouts.append(np.concatenate([s[: p - 1], [tilde], t[p:]]))
        p -= 2
    layouts.append(t)
    return layouts


def ladder_link_margin(source_sq, target_sq) -> float:
    """Worst tail margin over the ladder's links.  Below -TAIL_TOL some link
    is not majorized, so the ladder does not exist for this pair.  (The full
    sums agree by construction, so the k=1 margin is not tested.)"""
    layouts = ladder_layouts(source_sq, target_sq)
    return min(
        float(tail_margins(np.sort(a)[::-1], np.sort(b)[::-1])[1:].min())
        for a, b in zip(layouts, layouts[1:])
    )


def every_step_moves(source_sq, target_sq) -> bool:
    """True when each ladder step changes its window, so none is trivial."""
    layouts = ladder_layouts(source_sq, target_sq)
    return all(np.max(np.abs(a - b)) > 1e-9 for a, b in zip(layouts, layouts[1:]))


def _normalise(x) -> np.ndarray:
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    return x / x.sum()


def _dirichlet(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    lam = _normalise(rng.dirichlet(np.full(n, alpha)))
    # Keep sources strictly positive; a zero source entry is its own kind.
    lam = _normalise(lam + 1e-9)
    return lam


def _average(rng, x: np.ndarray, i: int, j: int) -> None:
    t = rng.random()
    xi, xj = x[i], x[j]
    x[i] = t * xi + (1 - t) * xj
    x[j] = (1 - t) * xi + t * xj


def _mixed(rng, target: np.ndarray, moves: int) -> np.ndarray:
    """Random pairwise averaging: the result is majorized by target."""
    x = target.copy()
    n = len(x)
    for _ in range(moves):
        i, j = rng.choice(n, size=2, replace=False)
        _average(rng, x, int(i), int(j))
    return _normalise(x)


def _adjacent_sweep(rng, target: np.ndarray) -> np.ndarray:
    """Averaging moves between adjacent indices, in random order, each
    adjacent pair taking part with probability DENSE_MOVE_SHARE."""
    x = target.copy()
    for i in rng.permutation(len(x) - 1):
        if rng.random() < DENSE_MOVE_SHARE:
            _average(rng, x, int(i), int(i) + 1)
    return _normalise(x)


def _dense_pair(rng, n: int, want_ladder: bool) -> tuple[np.ndarray, np.ndarray]:
    """A pair on which every ladder step is non-trivial (such plans have far
    more branch paths than verify_plan enumerates, at every n used here), and
    whose ladder exists or not, by the benchmark's own chain test."""
    while True:
        target = _dirichlet(rng, n, DENSE_ALPHA)
        source = _adjacent_sweep(rng, target)
        if every_step_moves(source, target) and (
            ladder_link_margin(source, target) >= -TAIL_TOL
        ) == want_ladder:
            return source, target


def _validated(source, target) -> tuple[list, list]:
    """The pair as plain floats, refusing anything the CLI would reject."""
    src, tgt = [float(v) for v in source], [float(v) for v in target]
    for vec in (src, tgt):
        if len(vec) != len(src) or len(vec) < 2:
            raise ValueError("pair has mismatched or too small dimension")
        if any(v < 0.0 or not math.isfinite(v) for v in vec):
            raise ValueError("pair has a negative or non-finite entry")
        if any(a < b for a, b in zip(vec, vec[1:])):
            raise ValueError("pair is not sorted non-increasing")
        if abs(math.fsum(vec) - 1.0) > 1e-12:
            raise ValueError("pair is not normalised")
    return src, tgt


def _doc(kind: str, source, target, argv=PLAN_ARGS) -> Doc:
    src, tgt = _validated(source, target)
    majorized = is_majorized(src, tgt)
    return Doc(
        kind=kind,
        n=len(src),
        argv=tuple(argv),
        text=json.dumps({"source": src, "target": tgt}),
        majorized=majorized,
        ladder_margin=ladder_link_margin(src, tgt) if majorized else None,
    )


def _sparse_pair(rng, n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Large n, but only two adjacent moves near the tail, so nearly every
    ladder step is trivial and the branch-path count stays small."""
    target = _dirichlet(rng, n, alpha)
    source = target.copy()
    for _ in range(2):
        i = int(rng.integers(n - 8, n - 1))
        _average(rng, source, i, i + 1)
    return _normalise(source), target


def _not_majorized_pair(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        a = _dirichlet(rng, n, 1.0)
        b = _dirichlet(rng, n, 1.0)
        if tail_margins(a, b)[1:].min() < -1e-6:
            return a, b


def _degenerate_pair(rng, n: int, flavour: int) -> tuple[np.ndarray, np.ndarray]:
    """Ties (flavour 0), zero tails (1) or 1e-13 coefficients (2)."""
    if flavour == 0:
        # Quantised spectra: many exact ties, including source == target.
        q = 8
        target = _normalise(np.maximum(np.round(_dirichlet(rng, n, 1.0) * q), 1))
        source = target.copy()
        for _ in range(int(rng.integers(0, 3))):
            i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
            mid = (source[i] + source[j]) / 2
            source[i] = source[j] = mid
        return _normalise(source), target
    if flavour == 1:
        # Zero tails: the target (and sometimes the source) loses rank.
        keep = int(rng.integers(2, n))
        target = np.zeros(n)
        target[:keep] = _dirichlet(rng, keep, 1.0)
        zeros_in_source = int(rng.integers(0, n - keep + 1))
        source = np.zeros(n)
        live = n - zeros_in_source
        source[:live] = _mixed(rng, np.concatenate([target[:keep], np.zeros(live - keep)]), 2 * live)
        return _normalise(source), _normalise(target)
    # A 1e-13 coefficient shared by the tails of both states.
    target = _dirichlet(rng, n, 1.0)
    target[-1] = 1e-13
    target = _normalise(target)
    source = np.concatenate([_mixed(rng, target[:-1], 2 * n), target[-1:]])
    return _normalise(source), target


def _walk_pair(rng, n: int, alpha: float, want_ladder: bool | None) -> tuple[np.ndarray, np.ndarray]:
    """A random pair at dimension n; want_ladder picks whether the benchmark's
    own chain test finds the ladder feasible (None accepts either)."""
    while True:
        target = _dirichlet(rng, n, alpha)
        source = _mixed(rng, target, 2 * n)
        if want_ladder in (None, ladder_link_margin(source, target) >= -TAIL_TOL):
            return source, target


def _split(count: int, ladder_share: float) -> list[tuple[bool, int]]:
    """count pairs as (want_ladder, how many): the ladder-feasible ones in
    their measured share, rounded, and the rest refused."""
    feasible = round(count * ladder_share)
    return [(True, feasible), (False, count - feasible)]


def plan_walk(seed: int) -> list[Doc]:
    """plan-walk: small random pairs whose branch paths the oracle walks.

    Dimensions, Dirichlet alphas, kinds and degenerate flavours are laid out
    by index, not drawn, so only the numbers change with the seed.
    """
    rng = np.random.default_rng([seed, 1])
    alphas = itertools.cycle(WALK_ALPHAS)
    docs = [_doc("pinned-zero-window", *ZERO_WINDOW_PAIR)]
    for n in WALK_RANDOM_N:
        for want, count in _split(WALK_PER_N, WALK_LADDER_SHARE[n]):
            for _ in range(count):
                docs.append(_doc("random", *_walk_pair(rng, n, next(alphas), want)))
    for i in range(WALK_SPARSE):
        n = WALK_SPARSE_N[i % len(WALK_SPARSE_N)]
        docs.append(_doc("sparse", *_sparse_pair(rng, n, next(alphas))))
    for i in range(WALK_NOT_MAJORIZED):
        n = WALK_RANDOM_N[i % len(WALK_RANDOM_N)]
        docs.append(_doc("not-majorized", *_not_majorized_pair(rng, n)))
    for i in range(WALK_DEGENERATE):
        n = WALK_DEGENERATE_N[i % len(WALK_DEGENERATE_N)]
        docs.append(_doc("degenerate", *_degenerate_pair(rng, n, i % 3)))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


def plan_dense(seed: int) -> list[Doc]:
    """plan-dense: large pairs where every ladder step is non-trivial."""
    rng = np.random.default_rng([seed, 2])
    docs = [
        _doc("dense", *_dense_pair(rng, n, want))
        for n, share in DENSE_LADDER_SHARE.items()
        for want, count in _split(DENSE_PER_N, share)
        for _ in range(count)
    ]
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


def simulate(seed: int) -> list[Doc]:
    """simulate: ladder-feasible plans of each size, at each worker count."""
    rng = np.random.default_rng([seed, 3])
    docs = []
    for n, shots in SIMULATE_SHOTS.items():
        for _ in range(SIMULATE_PAIRS_PER_N):
            source, target = _dense_pair(rng, n, want_ladder=True)
            shot_seed = int(rng.integers(1 << 62))
            for workers in SIMULATE_WORKERS:
                argv = (
                    "simulate", "--squared", "--format", "machine",
                    "--shots", str(shots), "--seed", str(shot_seed),
                    "--workers", str(workers),
                )
                docs.append(_doc(f"simulate-w{workers}", source, target, argv))
    return docs


WORKLOADS = {
    "plan-walk": plan_walk,
    "plan-dense": plan_dense,
    "simulate": simulate,
}
