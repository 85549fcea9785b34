"""Random problem generators for tests, experiments and demos.

Feasible pairs are built constructively: mixing a spectrum with pairwise
averaging moves always produces a spectrum it majorizes, so no rejection
loop is needed and feasibility is exact up to float rounding.
"""

from __future__ import annotations

import numpy as np

from .schmidt import SchmidtVector, validate

# Floor keeping sources strictly positive (source-grade).
_MIN_COEFF = 1e-8


def random_spectrum(rng: np.random.Generator, n: int, alpha: float = 1.0) -> np.ndarray:
    """Sorted squared coefficients from a symmetric Dirichlet.

    Small alpha concentrates weight (spiky spectra), large alpha flattens.
    """
    lam = np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]
    if lam[-1] < _MIN_COEFF:
        lam = lam + _MIN_COEFF
        lam /= lam.sum()
        lam = np.sort(lam)[::-1]
    return lam


def mix_down(rng: np.random.Generator, lam: np.ndarray, moves: int) -> np.ndarray:
    """Apply pairwise averaging moves; the result is majorized by the input."""
    x = lam.copy()
    n = len(x)
    for _ in range(moves):
        i, j = rng.choice(n, size=2, replace=False)
        t = rng.random()
        xi, xj = x[i], x[j]
        x[i] = t * xi + (1 - t) * xj
        x[j] = (1 - t) * xi + t * xj
    return np.sort(x)[::-1]


def random_feasible_pair(
    rng: np.random.Generator,
    n: int,
    *,
    alpha: float = 1.0,
    moves: int | None = None,
) -> tuple[SchmidtVector, SchmidtVector]:
    """A (source, target) pair with the source majorized by the target."""
    target_sq = random_spectrum(rng, n, alpha)
    source_sq = mix_down(rng, target_sq, moves if moves is not None else 2 * n)
    source = validate(source_sq.tolist(), squared=True, autosort=True)
    target = validate(target_sq.tolist(), squared=True, autosort=True)
    return source, target

