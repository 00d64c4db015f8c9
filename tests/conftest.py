"""Shared helpers for the test suite."""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from loccxform import BipartiteState, SchmidtSpectrum, faithful

PATHS = ("floats", "array")


@contextmanager
def on_path(path: str):
    """Send every pair down the floats path, or every pair down the array path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(faithful, "_FLOAT_PATH_LEVELS", math.inf if path == "floats" else 0)
        yield


def random_spectrum(rng: np.random.Generator, n: int) -> SchmidtSpectrum:
    """Uniform random point on the sorted probability simplex."""
    v = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    return SchmidtSpectrum(tuple(float(x) for x in v))


def floored_spectrum(rng: np.random.Generator, n: int) -> SchmidtSpectrum:
    """Random spectrum with every coordinate bounded well away from zero.

    Grid-resolution comparisons need the optimum's coordinates to be
    representable at the grid step; sub-step coordinates would make the
    stated resolution bound unattainable for any grid search.
    """
    v = (rng.dirichlet(np.ones(n)) + 0.3) / (1.0 + 0.3 * n)
    v = np.sort(v)[::-1]
    return SchmidtSpectrum(tuple(float(x) for x in v))


def random_state(rng: np.random.Generator, n: int) -> BipartiteState:
    """Random pure state of an n x n system (Gaussian amplitudes, normalized)."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return BipartiteState(m / np.linalg.norm(m))


def dominating_spectrum(rng: np.random.Generator, base: SchmidtSpectrum) -> SchmidtSpectrum:
    """Random spectrum majorizing ``base``: shift mass upward and re-sort."""
    g = base.as_array()
    n = len(g)
    for _ in range(int(rng.integers(1, 4))):
        if n == 1:
            break
        j = int(rng.integers(1, n))
        i = int(rng.integers(0, j))
        amount = rng.uniform(0.0, g[j])
        g[j] -= amount
        g[i] += amount
        g[::-1].sort()
    return SchmidtSpectrum(tuple(float(x) for x in g))
