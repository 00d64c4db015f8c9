"""Independent brute-force verifiers for the optimal-conversion results.

Nothing here calls into the staircase construction: feasibility and fidelity
are recomputed from first principles (partial sums, matrix overlaps) so the
test suite can cross-check the closed-form answers against exhaustive or
sampled search.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectra import BipartiteState, SchmidtSpectrum, aligned_fidelity, pad_to_common

DEFAULT_GRID_BUDGET = 10_000_000
BUDGET_ENV = "LOCCXFORM_BUDGET"

_MC_CHUNK = 2048
_ENSEMBLE_MAX_BRANCHES = 4


class GridBudgetError(RuntimeError):
    """Raised when a grid enumeration would exceed its point budget."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution of a probability-simplex grid search.

    ``budget`` caps the number of enumerated grid points; when None it falls
    back to the LOCCXFORM_BUDGET environment variable or the built-in default.
    """

    dimension: int
    step: float
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("grid dimension must be positive")
        if not (0.0 < self.step <= 1.0):
            raise ValueError(f"grid step out of range (0, 1]: {self.step!r}")

    @property
    def resolution(self) -> int:
        return max(1, round(1.0 / self.step))

    @property
    def resolved_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        return int(os.environ.get(BUDGET_ENV, DEFAULT_GRID_BUDGET))


@dataclass(frozen=True, eq=False)
class UnitaryPair:
    """A pair of local unitaries, one per subsystem."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        for name, mat in (("U", self.U), ("V", self.V)):
            arr = np.asarray(mat, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"{name} must be square")
            eye = np.eye(arr.shape[0])
            if not np.allclose(arr.conj().T @ arr, eye, atol=1e-10):
                raise ValueError(f"{name} is not unitary")
            object.__setattr__(self, name, arr)


def haar_random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random unitary via QR of a complex Gaussian, diagonal phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _batch_random_unitaries(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# ---------------------------------------------------------------------------
# Grid search over spectra dominating the source
# ---------------------------------------------------------------------------

# Least recently used grids are evicted past this many (total, parts) keys.
_GRID_CACHE_SIZE = 8
_grid_cache: OrderedDict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = OrderedDict()


def _sorted_grid_points(total: int, parts: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonincreasing integer compositions of ``total`` into ``parts`` slots,
    with their cumulative sums; the last ``_GRID_CACHE_SIZE`` keys are cached."""
    key = (total, parts)
    cached = _grid_cache.get(key)
    if cached is not None:
        if len(cached[0]) > budget:
            raise GridBudgetError(
                f"{len(cached[0])} grid points exceed the budget of {budget}"
            )
        _grid_cache.move_to_end(key)
        return cached

    rows: list[list[int]] = []

    def extend(prefix: list[int], remaining: int, cap: int, slots: int) -> None:
        if slots == 1:
            if remaining <= cap:
                rows.append(prefix + [remaining])
                if len(rows) > budget:
                    raise GridBudgetError(
                        f"grid enumeration exceeded the budget of {budget} points"
                    )
            return
        low = -(-remaining // slots)  # ceil: later slots may not exceed this one
        for v in range(min(cap, remaining), low - 1, -1):
            extend(prefix + [v], remaining - v, v, slots - 1)

    extend([], total, total, parts)
    pts = np.array(rows, dtype=np.int64)
    cum = np.cumsum(pts, axis=1)
    pts.setflags(write=False)
    cum.setflags(write=False)
    _grid_cache[key] = (pts, cum)
    if len(_grid_cache) > _GRID_CACHE_SIZE:
        _grid_cache.popitem(last=False)
    return pts, cum


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
    a, b = pad_to_common(alpha, beta)
    if len(a) > grid.dimension:
        if max(a.nonzero_count, b.nonzero_count) > grid.dimension:
            raise ValueError("grid dimension below the spectra's nonzero support")
        a, b = SchmidtSpectrum(a.probs[: grid.dimension]), SchmidtSpectrum(
            b.probs[: grid.dimension]
        )
    else:
        a, b = a.padded(grid.dimension), b.padded(grid.dimension)

    big_n = grid.resolution
    pts, cum = _sorted_grid_points(big_n, grid.dimension, grid.resolved_budget)
    thresholds = _exact_ceil_thresholds(np.cumsum(a.as_array()), big_n)
    feasible = np.all(cum >= thresholds, axis=1)
    amps = np.sqrt(pts[feasible] * b.as_array()).sum(axis=1)
    return float(min(1.0, amps.max() ** 2 / big_n))


# ---------------------------------------------------------------------------
# Monte Carlo local-unitary overlap sampling
# ---------------------------------------------------------------------------


def _overlap(m_tau_conj: np.ndarray, rotated: np.ndarray) -> np.ndarray:
    amp = np.einsum("ij,...ij->...", m_tau_conj, rotated)
    return np.abs(amp) ** 2


def _aligning_pair(m_tau: np.ndarray, m_omega: np.ndarray) -> UnitaryPair:
    """The unitary pair mapping omega's Schmidt bases onto tau's."""
    p_tau, _, vh_tau = np.linalg.svd(m_tau)
    p_omega, _, vh_omega = np.linalg.svd(m_omega)
    u = p_tau @ p_omega.conj().T
    v = (vh_omega.conj().T @ vh_tau).T
    return UnitaryPair(u, v)


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

    aligning = _aligning_pair(tau.amplitudes, m_omega)
    injected = np.stack(
        [
            _overlap(m_tau_conj, m_omega),  # identity pair
            _overlap(m_tau_conj, aligning.U @ m_omega @ aligning.V.T),
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
    return np.cumsum(arr[::-1])[::-1]


def ensemble_is_feasible(
    alpha: SchmidtSpectrum, weights: np.ndarray, branches: list[np.ndarray]
) -> bool:
    """Do the weighted branch spectra keep every average tail sum at or below
    alpha's?  (The acceptance condition for a probabilistic conversion.)"""
    n = max(len(alpha), max(len(g) for g in branches))
    tails_a = _tail_sums(np.pad(alpha.as_array(), (0, n - len(alpha))))
    avg = np.zeros(n)
    for w, g in zip(weights, branches):
        avg += w * _tail_sums(np.pad(g, (0, n - len(g))))
    return bool(np.all(avg <= tails_a))


def _dominating_variant(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random spectrum whose tails never exceed a's: repeatedly shift mass
    from a lower coefficient to a higher one and re-sort."""
    g = a.copy()
    n = len(g)
    if n == 1:
        return g
    for _ in range(int(rng.integers(1, 4))):
        j = int(rng.integers(1, n))
        i = int(rng.integers(0, j))
        amount = rng.uniform(0.0, g[j])
        g[j] -= amount
        g[i] += amount
        g[::-1].sort()
    return g


def sample_feasible_ensembles(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, count: int, seed: int
) -> list[float]:
    """Average overlaps with beta of random feasible probabilistic conversions.

    Each ensemble holds up to four branch spectra with Dirichlet weights;
    candidates are kept only if ``ensemble_is_feasible`` confirms the average
    tail-sum constraints, and rejected draws fall back to branches built to
    dominate alpha (so the feasible set is never empty).  The do-nothing
    ensemble {1, alpha} is always emitted first.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    a, b = pad_to_common(alpha, beta)
    a_arr, b_arr = a.as_array(), b.as_array()
    n = len(a_arr)
    rng = np.random.default_rng(seed)

    def avg_overlap(weights: np.ndarray, branches: list[np.ndarray]) -> float:
        return float(
            sum(
                w * min(1.0, np.sqrt(g * b_arr).sum() ** 2)
                for w, g in zip(weights, branches)
            )
        )

    values = [aligned_fidelity(alpha, beta)]
    while len(values) < count:
        k = int(rng.integers(1, _ENSEMBLE_MAX_BRANCHES + 1))
        weights = rng.dirichlet(np.ones(k))
        branches = []
        for _ in range(k):
            kind = rng.integers(0, 4)
            if kind == 0:
                branches.append(a_arr.copy())
            elif kind == 1:
                branches.append(_dominating_variant(a_arr, rng))
            elif kind == 2:
                branches.append(b_arr.copy())
            else:
                mix = rng.dirichlet(np.ones(n))
                mix[::-1].sort()
                branches.append(mix)
        if not ensemble_is_feasible(alpha, weights, branches):
            # guaranteed-feasible fallback keeps the stream moving
            branches = [_dominating_variant(a_arr, rng) for _ in range(k)]
            if not ensemble_is_feasible(alpha, weights, branches):
                continue
        values.append(avg_overlap(weights, branches))
    return values
