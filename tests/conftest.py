"""Shared helpers for the test suite."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from loccxform import BipartiteState, SchmidtSpectrum, faithful

PATHS = ("floats", "array")


@contextmanager
def on_path(path: str):
    """Send every pair down the floats path, or every pair down the array path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(faithful, "_FLOAT_PATH_LEVELS", math.inf if path == "floats" else 0)
        yield


SUBNORMAL = 5e-324
KINDS = ("uniform", "dirichlet", "rounded", "near_degenerate", "subnormal_tail", "padded", "power")


def draw_spectrum(rng: np.random.Generator, n: int, kind: str) -> SchmidtSpectrum:
    """An n-level spectrum of one of the numerically hard kinds:
    uniform: coefficients from U[1e-3, 1];
    dirichlet: Dirichlet with concentration 0.2, 1 or 5;
    rounded: multiples of 1/10, 1/100 or 1/1000 (exact ties);
    near_degenerate: 1 + eps * k, eps from 1e-16 to 1e-10 and k in -3..3;
    subnormal_tail: 1 to min(n - 1, 100) subnormal coefficients after U[1e-3, 1];
    padded: a Dirichlet spectrum cut to trailing zeros at a random level;
    power: (i + c)**-p with c in [0.5, 1.5] and p in [2, 4] (convex chains
    against a uniform target)."""
    if kind == "uniform":
        v = rng.uniform(1e-3, 1.0, n)
    elif kind == "rounded":
        units = rng.choice([10, 100, 1000])
        cuts = np.sort(rng.integers(0, units + 1, n - 1))
        v = np.diff(np.concatenate(([0], cuts, [units]))) / units
    elif kind == "near_degenerate":
        v = 1.0 + 10.0 ** rng.uniform(-16.0, -10.0) * rng.integers(-3, 4, n)
    elif kind == "subnormal_tail":
        tail = int(rng.integers(1, min(n - 1, 100) + 1)) if n > 1 else 0
        v = np.concatenate((rng.uniform(1e-3, 1.0, n - tail), rng.integers(1, 1001, tail) * SUBNORMAL))
    elif kind == "power":
        v = (np.arange(1, n + 1) + rng.uniform(0.5, 1.5)) ** -rng.uniform(2.0, 4.0)
    else:
        v = rng.dirichlet(np.full(n, rng.choice([0.2, 1.0, 5.0])))
        if kind == "padded":
            v[int(rng.integers(1, n + 1)) :] = 0.0
    v = np.sort(v)[::-1]
    return SchmidtSpectrum(v / v.sum())


@st.composite
def spectra(draw, max_n: int = 64, min_n: int = 1) -> SchmidtSpectrum:
    """``draw_spectrum`` of a drawn seed, length and kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw_spectrum(rng, draw(st.integers(min_n, max_n)), draw(st.sampled_from(KINDS)))


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
