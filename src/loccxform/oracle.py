"""Independent brute-force verifiers for the optimal-conversion results.

Nothing here calls into the staircase construction: feasibility and fidelity
are recomputed from first principles (partial sums, matrix overlaps) so the
test suite can cross-check the closed-form answers against exhaustive or
sampled search.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spectra import (
    NORMALIZATION_ACCEPT,
    BipartiteState,
    SchmidtSpectrum,
    aligned_fidelity,
    pad_pair,
)

DEFAULT_GRID_BUDGET = 10_000_000
BUDGET_ENV = "LOCCXFORM_BUDGET"

_MC_CHUNK = 2048
_ENSEMBLE_MAX_BRANCHES = 4
# A round of ensembles holds at most this many branch coefficients (or a
# single ensemble, when one alone is larger): memory stays bounded at large n.
_ENSEMBLE_BATCH_ELEMENTS = 1 << 18


class GridBudgetError(RuntimeError):
    """Raised when a grid enumeration would exceed its point budget."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution of a probability-simplex grid search.

    ``budget`` caps the number of enumerated grid points; when None it falls
    back to the LOCCXFORM_BUDGET environment variable or the built-in default.
    Either must be a positive integer.
    """

    dimension: int
    step: float
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("grid dimension must be positive")
        if not (0.0 < self.step <= 1.0):
            raise ValueError(f"grid step out of range (0, 1]: {self.step!r}")
        if self.budget is not None and (type(self.budget) is not int or self.budget < 1):
            raise ValueError(f"budget must be a positive integer: {self.budget!r}")

    @property
    def resolution(self) -> int:
        return max(1, round(1.0 / self.step))

    @property
    def resolved_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        text = os.environ.get(BUDGET_ENV, str(DEFAULT_GRID_BUDGET))
        if not text.strip().isdecimal() or int(text) < 1:
            raise ValueError(f"{BUDGET_ENV} must be a positive integer: {text!r}")
        return int(text)


def _batch_random_unitaries(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitaries: QR of complex Gaussians, diagonal phases fixed."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# ---------------------------------------------------------------------------
# Grid search over spectra dominating the source
# ---------------------------------------------------------------------------

def _grid_size(total: int, parts: int) -> int:
    """Partitions of ``total`` into at most ``parts`` parts: the size of ``_grid``."""
    counts = [1] + [0] * total  # counts[t]: partitions of t into parts of size <= k
    for k in range(1, min(parts, total) + 1):
        for t in range(k, total + 1):
            counts[t] += counts[t - k]
    return counts[total]


@lru_cache(maxsize=8)
def _grid(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonincreasing integer compositions of ``total`` into ``parts`` slots,
    with their cumulative sums, as read-only arrays."""
    rows: list[list[int]] = []

    def extend(prefix: list[int], remaining: int, cap: int, slots: int) -> None:
        if slots == 1:
            if remaining <= cap:
                rows.append(prefix + [remaining])
            return
        low = -(-remaining // slots)  # ceil: later slots may not exceed this one
        for v in range(min(cap, remaining), low - 1, -1):
            extend(prefix + [v], remaining - v, v, slots - 1)

    extend([], total, total, parts)
    pts = np.array(rows, dtype=np.int64)
    cum = np.cumsum(pts, axis=1)
    pts.setflags(write=False)
    cum.setflags(write=False)
    return pts, cum


def _sorted_grid_points(total: int, parts: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """``_grid(total, parts)``, unless its points would exceed ``budget``."""
    size = _grid_size(total, parts)
    if size > budget:
        raise GridBudgetError(f"{size} grid points exceed the budget of {budget}")
    return _grid(total, parts)


def _exact_ceil_thresholds(heads: np.ndarray, resolution: int) -> np.ndarray:
    """Smallest integers t with t/resolution >= each partial sum, computed in
    exact rational arithmetic so no feasible stratum is ever misclassified."""
    out = np.empty(len(heads), dtype=np.int64)
    for i, value in enumerate(heads):
        frac = Fraction(float(value))
        out[i] = -((-frac.numerator * resolution) // frac.denominator)
    return np.minimum(np.maximum(out, 0), resolution)


def grid_max_fidelity(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, grid: GridSpec) -> float:
    """Exhaustive lower bound on the optimal conversion fidelity.

    Enumerates every sorted grid point on the probability simplex whose
    partial sums dominate alpha's, and returns the best overlap with beta
    among them.  Feasibility uses exact integer thresholds, so the result can
    never exceed the true optimum; it approaches it as the step shrinks.
    """
    if max(alpha.nonzero_count, beta.nonzero_count) > grid.dimension:
        raise ValueError("grid dimension below the spectra's nonzero support")
    # sorted spectra: whatever lies past the dimension is zero padding
    pair = pad_pair(alpha, beta, grid.dimension)
    a, b = pair.a[: grid.dimension], pair.b[: grid.dimension]

    big_n = grid.resolution
    pts, cum = _sorted_grid_points(big_n, grid.dimension, grid.resolved_budget)
    thresholds = _exact_ceil_thresholds(np.cumsum(a), big_n)
    feasible = np.all(cum >= thresholds, axis=1)
    amps = np.sqrt(pts[feasible] * b).sum(axis=1)
    return float(min(1.0, amps.max() ** 2 / big_n))


# ---------------------------------------------------------------------------
# Monte Carlo local-unitary overlap sampling
# ---------------------------------------------------------------------------


def _overlap(m_tau_conj: np.ndarray, rotated: np.ndarray) -> np.ndarray:
    amp = np.einsum("ij,...ij->...", m_tau_conj, rotated)
    return np.abs(amp) ** 2


def _aligning_pair(m_tau: np.ndarray, m_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The local unitaries (U, V) mapping omega's Schmidt bases onto tau's."""
    p_tau, _, vh_tau = np.linalg.svd(m_tau)
    p_omega, _, vh_omega = np.linalg.svd(m_omega)
    u = p_tau @ p_omega.conj().T
    v = (vh_omega.conj().T @ vh_tau).T
    return u, v


def sample_unitary_overlap(
    tau: BipartiteState, omega: BipartiteState, trials: int, seed: int
) -> float:
    """Largest sampled overlap |<tau|(U x V)|omega>|^2 over random local pairs.

    The identity pair and the basis-aligning pair are always part of the
    sample set, so the returned maximum attains the aligned-fidelity bound.
    Sampling is chunked, with per-chunk generators derived from the master
    seed, so results are reproducible and chunks could run in parallel.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if tau.dims != omega.dims:
        raise ValueError("states must have equal dimensions")
    n = tau.dims
    m_tau_conj = tau.amplitudes.conj()
    m_omega = omega.amplitudes

    u, v = _aligning_pair(tau.amplitudes, m_omega)
    injected = np.stack(
        [
            _overlap(m_tau_conj, m_omega),  # identity pair
            _overlap(m_tau_conj, u @ m_omega @ v.T),
        ]
    )
    best = float(injected.max())

    chunk_seeds = np.random.SeedSequence(seed).spawn(-(-trials // _MC_CHUNK))
    remaining = trials
    for child in chunk_seeds:
        size = min(_MC_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(child)
        us = _batch_random_unitaries(size, n, rng)
        vs = _batch_random_unitaries(size, n, rng)
        rotated = us @ m_omega @ np.swapaxes(vs, 1, 2)
        best = max(best, float(_overlap(m_tau_conj, rotated).max()))
    return min(1.0, best)


# ---------------------------------------------------------------------------
# Random ensembles compatible with the average-monotone constraints
# ---------------------------------------------------------------------------


def _tail_sums(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


def _feasible(tails_a: np.ndarray, weights: np.ndarray, branches: np.ndarray) -> np.ndarray:
    """Which rows' weighted average branch tail sums stay at or below alpha's."""
    return np.all(np.einsum("bk,bkn->bn", weights, _tail_sums(branches)) <= tails_a, axis=-1)


def ensemble_is_feasible(
    alpha: SchmidtSpectrum, weights: np.ndarray, branches: list[np.ndarray]
) -> bool:
    """Do the weighted branch spectra keep every average tail sum at or below
    alpha's?  (The acceptance condition for a probabilistic conversion.)
    ``weights`` must be a probability vector and each branch a spectrum."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(branches),):
        raise ValueError(f"weights of shape {weights.shape} for {len(branches)} branches")
    if abs(math.fsum(weights) - 1.0) > NORMALIZATION_ACCEPT or not np.all(weights >= 0.0):
        raise ValueError(f"weights must be a probability vector: {weights.tolist()!r}")
    n = max(len(alpha), *map(len, branches))
    pairs = [pad_pair(alpha, SchmidtSpectrum(g), n) for g in branches]
    gs = np.stack([pair.b for pair in pairs])[None]
    return bool(_feasible(_tail_sums(pairs[0].a), weights[None] / weights.sum(), gs)[0])


def _dominating_variants(a: np.ndarray, rows: int, rng: np.random.Generator) -> np.ndarray:
    """(rows, 4, n) spectra with tails at most a's: 1-3 upward mass shifts each."""
    g, n = np.tile(a, (rows * _ENSEMBLE_MAX_BRANCHES, 1)), len(a)
    idx, shifts = np.arange(len(g)), rng.integers(1, 4, size=len(g))
    for step in range(3 if n > 1 else 0):
        j = rng.integers(1, n, size=len(g))
        i = rng.integers(0, j)
        amount = rng.uniform(0.0, g[idx, j]) * (step < shifts)
        g[idx, j] -= amount
        g[idx, i] += amount
        g = np.sort(g)[:, ::-1]
    return g.reshape(rows, _ENSEMBLE_MAX_BRANCHES, n)


def sample_feasible_ensembles(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, count: int, seed: int
) -> list[float]:
    """Average overlaps with beta of random feasible probabilistic conversions:
    the do-nothing ensemble {1, alpha}, then batches of up to four weighted
    branches (alpha, a variant dominating it, beta or a sorted Dirichlet draw).
    A row failing ``_feasible`` gets fresh dominating variants under the same
    weights and is dropped if it still fails."""
    if count < 1:
        raise ValueError("count must be at least 1")
    a_arr, b_arr, _, _ = pad_pair(alpha, beta)
    n, k_max, tails_a = len(a_arr), _ENSEMBLE_MAX_BRANCHES, _tail_sums(a_arr)
    cap = max(1, _ENSEMBLE_BATCH_ELEMENTS // (k_max * n))
    rng = np.random.default_rng(seed)
    values = [aligned_fidelity(alpha, beta)]
    while len(values) < count:
        batch = min(count - len(values), cap)
        # normalised exponentials on the first k slots: Dirichlet(1_k) weights
        live = np.arange(k_max) < rng.integers(1, k_max + 1, size=(batch, 1))
        weights = rng.standard_exponential((batch, k_max)) * live
        weights /= weights.sum(axis=1, keepdims=True)
        kind = rng.integers(0, 4, size=(batch, k_max, 1))
        variants = _dominating_variants(a_arr, batch, rng)
        mixes = np.sort(rng.dirichlet(np.ones(n), size=(batch, k_max)))[..., ::-1]
        branches = np.select([kind == 0, kind == 1, kind == 2], [a_arr, variants, b_arr], mixes)
        retry = ~_feasible(tails_a, weights, branches)
        branches[retry] = _dominating_variants(a_arr, int(retry.sum()), rng)
        overlaps = np.minimum(1.0, np.sqrt(branches * b_arr).sum(axis=-1) ** 2)
        averages = (weights * overlaps).sum(axis=1)
        values.extend(averages[_feasible(tails_a, weights, branches)].tolist())
    return values
