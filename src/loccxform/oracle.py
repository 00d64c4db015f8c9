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
# Resolutions, thresholds and masses are int64: 1/step must round below 2**63.
_INT64_LIMIT = float(2**63)


def _count(value: object, name: str) -> int:
    """``value`` as a positive int; a bool, float or string is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer: {value!r}")
    return int(value)


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
        _count(self.dimension, "grid dimension")
        if not (0.0 < self.step <= 1.0):
            raise ValueError(f"grid step out of range (0, 1]: {self.step!r}")
        if not 1.0 / float(self.step) < _INT64_LIMIT:  # inf, or a resolution past int64
            raise ValueError(f"grid step too fine for an int64 resolution: {self.step!r}")
        if self.budget is not None:
            _count(self.budget, "budget")

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
    """Haar-random unitaries: Gram-Schmidt on the columns of complex Gaussians.

    Each matrix Z = X + iY has independent standard normal entries, drawn as
    X then Y.  Z is invertible with probability one, and an invertible Z has
    exactly one factorisation Z = QR with Q unitary and R upper triangular
    with a positive real diagonal.  Gram-Schmidt on Z's columns builds that
    factorisation (R's diagonal holds the column norms).  The textbook Haar
    construction reaches the same Q from a LAPACK QR of Z / sqrt(2) by moving
    the phases of R's diagonal into Q, and scaling Z does not change Q, so
    the two agree to rounding.

    Modified Gram-Schmidt loses orthogonality in proportion to Z's condition
    number; a second pass against the earlier columns restores it to working
    precision ("twice is enough").  The whole batch moves together: ``cols[j]``
    holds column j of every matrix with the batch index last, so each step is
    one array operation on contiguous rows.  The result is a view of shape
    (count, n, n).
    """
    real, imag = rng.standard_normal((count, n, n)), rng.standard_normal((count, n, n))
    cols = np.empty((n, n, count), dtype=complex)
    cols.real, cols.imag = real.T, imag.T
    for j, col in enumerate(cols):
        for _ in range(2):
            for q in cols[:j]:
                col -= (q.conj() * col).sum(axis=0) * q
        col /= np.sqrt((col.real**2 + col.imag**2).sum(axis=0))
    return cols.T


# ---------------------------------------------------------------------------
# Grid search over spectra dominating the source
# ---------------------------------------------------------------------------

def _grid_size(total: int, parts: int) -> int:
    """Partitions of ``total`` into at most ``parts`` parts: the grid's point count."""
    parts = min(parts, total)
    if parts <= 2:  # closed forms: here the budget's lower bound lets huge totals through
        return total // 2 + 1 if parts == 2 else 1
    counts = [t // 2 + 1 for t in range(total + 1)]  # counts[t]: parts of size <= k
    for k in range(3, parts + 1):
        for t in range(k, total + 1):
            counts[t] += counts[t - k]
    return counts[total]


def _exact_ceil_thresholds(heads: np.ndarray, resolution: int) -> np.ndarray:
    """Smallest integers t with t/resolution >= each partial sum, computed in
    exact rational arithmetic so no feasible stratum is ever misclassified."""
    out = np.empty(len(heads), dtype=np.int64)
    for i, value in enumerate(heads):
        frac = Fraction(float(value))
        out[i] = min(max(-((-frac.numerator * resolution) // frac.denominator), 0), resolution)
    return out


def grid_max_fidelity(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, grid: GridSpec) -> float:
    """Exhaustive lower bound on the optimal conversion fidelity.

    Searches every sorted grid point on the probability simplex whose partial
    sums dominate alpha's, and returns the best overlap with beta among them.
    Feasibility uses exact integer thresholds, so the result can never exceed
    the true optimum; it approaches it as the step shrinks.

    The points grow one slot at a time as whole arrays, one row per prefix:
    mass placed, last value (the next one's cap) and running amplitude
    sum of sqrt(v_i b_i).  A slot takes each value from min(last, remaining)
    down to the larger of ceil(remaining / slots left), which leaves room for
    the rest, and the slot's threshold less the mass placed, which prunes no
    feasible point.  Each prefix extends to a distinct grid point, so the
    budget, checked first, bounds the frontier's memory as well as the work.

    How far below the optimum the result can fall: let xi be any spectrum
    whose partial sums S_k dominate alpha's, and h = 1/resolution.  Round
    them up to the grid, X_k = ceil(S_k/h) h, and take x_k = X_k - X_(k-1).
    Then x >= 0, its partial sums X_k >= S_k dominate alpha's, and
    |x_k - xi_k| < h since both roundings lie in [0, h).  Sorting x keeps
    its partial sums dominant and, beta being sorted, does not lower the
    overlap, so the sorted x is a searched point and the result is at least
    (sum_k sqrt(b_k max(0, xi_k - h)))**2, ``grid_fidelity_floor``.  With
    xi the optimal reachable state, the shortfall is of order sqrt(h) where
    a coefficient of xi is near h, and of order h elsewhere.
    """
    if max(alpha.nonzero_count, beta.nonzero_count) > grid.dimension:
        raise ValueError("grid dimension below the spectra's nonzero support")
    big_n, slots, budget = grid.resolution, int(grid.dimension), grid.resolved_budget
    # a partition into k parts orders into at most k! compositions: this lower
    # bound refuses a fine grid before its exact count is paid for
    k = min(slots, big_n)
    lower = -(-math.comb(big_n + k - 1, k - 1) // math.factorial(k))
    if lower > budget:
        raise GridBudgetError(f"at least {lower} grid points exceed the budget of {budget}")
    if (size := _grid_size(big_n, slots)) > budget:
        raise GridBudgetError(f"{size} grid points exceed the budget of {budget}")
    # sorted spectra: whatever lies past the dimension is zero padding
    pair = pad_pair(alpha, beta, slots)
    b, thresholds = pair.b[:slots], _exact_ceil_thresholds(np.cumsum(pair.a[:slots]), big_n)

    placed, last, amp = np.zeros(1, dtype=np.int64), np.full(1, big_n), np.zeros(1)
    for left, b_i, t_i in zip(range(slots, 1, -1), b, thresholds):
        remaining = big_n - placed
        top = np.minimum(last, remaining)
        counts = np.maximum(top - np.maximum(-(-remaining // left), t_i - placed) + 1, 0)
        rows = np.repeat(np.arange(len(counts)), counts)
        # values run down from each row's top: top + start - (flat position)
        last = np.repeat(top + np.cumsum(counts) - counts, counts) - np.arange(len(rows))
        placed = placed[rows] + last
        amp = amp[rows] + np.sqrt(last * b_i)
    amp += np.sqrt((big_n - placed) * b[-1])  # the last slot takes what remains
    return float(min(1.0, amp.max() ** 2 / big_n))


def grid_fidelity_floor(xi: SchmidtSpectrum, beta: SchmidtSpectrum, grid: GridSpec) -> float:
    """The least ``grid_max_fidelity(alpha, beta, grid)`` can return when xi's
    partial sums dominate alpha's: (sum_k sqrt(b_k max(0, xi_k - h)))**2 with
    h = 1/resolution (the proof is in ``grid_max_fidelity``)."""
    pair = pad_pair(xi, beta)
    amp = float(np.sqrt(pair.b * np.maximum(pair.a - 1.0 / grid.resolution, 0.0)).sum())
    return amp * amp


# ---------------------------------------------------------------------------
# Monte Carlo local-unitary overlap sampling
# ---------------------------------------------------------------------------


def _overlaps(m_tau: np.ndarray, m_omega: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """|<tau|(U x V)|omega>|^2 for each pair (U, V) of the stacks ``us``, ``vs``.

    The amplitude Tr(M_tau^H U M_omega V^T) is the sum over (i, k) of
    (U M_omega)_ik (conj(M_tau) V)_ik.  Both factors are built with the batch
    index last, the layout ``_batch_random_unitaries`` returns a view of:
    U M_omega is one flat product, conj(M_tau) V is n products of
    n x count blocks, and a product-sum over the first two axes finishes it.
    """
    count, n, _ = us.shape
    left = m_omega.T @ us.T.reshape(n, n * count)  # [k, (i, b)]: (U_b M_omega)_ik
    right = m_tau.conj() @ vs.T  # [k, i, b]: (conj(M_tau) V_b)_ik
    amp = (left.reshape(n * n, count) * right.reshape(n * n, count)).sum(axis=0)
    return amp.real**2 + amp.imag**2


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
    trials = _count(trials, "trials")
    if tau.dims != omega.dims:
        raise ValueError("states must have equal dimensions")
    n, m_tau, m_omega = tau.dims, tau.amplitudes, omega.amplitudes

    u, v = _aligning_pair(m_tau, m_omega)
    eye = np.eye(n)
    best = float(_overlaps(m_tau, m_omega, np.stack([eye, u]), np.stack([eye, v])).max())

    chunk_seeds = np.random.SeedSequence(seed).spawn(-(-trials // _MC_CHUNK))
    remaining = trials
    for child in chunk_seeds:
        size = min(_MC_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(child)
        us = _batch_random_unitaries(size, n, rng)
        vs = _batch_random_unitaries(size, n, rng)
        best = max(best, float(_overlaps(m_tau, m_omega, us, vs).max()))
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
    count = _count(count, "count")
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
