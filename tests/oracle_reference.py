"""Reference for the two samplers of ``loccxform.oracle``, kept to test that
their batched forms return the same values, bit for bit.

This is the samplers' code as it stood before one QR call factored both Haar
stacks and the ensemble rounds kept tail sums beside their branches: each
Haar stack takes its own QR (``_batch_random_unitaries``), the aligning pair
its two SVDs, every overlap the einsum product, and every feasibility test
its own tail sums from the branches (``_feasible``).  The variants are built
descending, with ``np.tile`` and a sort that copies (``_dominating_variants``).
Argument checks and budgets are left out: the functions take valid input.
It shares no code with ``loccxform.oracle``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from loccxform.spectra import BipartiteState, SchmidtSpectrum, aligned_fidelity, pad_pair

_MC_BLOCK_ELEMENTS = 1 << 16
_ENSEMBLE_MAX_BRANCHES = 4
_ENSEMBLE_BATCH_ELEMENTS = 1 << 18


def _batch_random_unitaries(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random n x n unitaries, X drawn before Y, one QR call."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _overlaps(m_tau: np.ndarray, m_omega: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    n = len(m_tau)
    left = m_omega.T @ us.T.reshape(n, -1)
    right = m_tau.conj() @ vs.T
    amp = np.einsum("kb,kc->bc", left.reshape(n * n, -1), right.reshape(n * n, -1))
    return amp.real**2 + amp.imag**2


def _sampled_overlaps(
    m_tau: np.ndarray, m_omega: np.ndarray, trials: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    n = len(m_tau)
    rows = math.isqrt(trials - 1) + 1
    us = _batch_random_unitaries(rows, n, rng)
    vs = _batch_random_unitaries(-(-trials // rows), n, rng)
    step = max(1, _MC_BLOCK_ELEMENTS // len(vs))
    for start in range(0, rows, step):
        block = _overlaps(m_tau, m_omega, us[start:start + step], vs)
        yield block.ravel()[: trials - start * len(vs)]


def _aligning_pair(m_tau: np.ndarray, m_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_tau, _, vh_tau = np.linalg.svd(m_tau)
    p_omega, _, vh_omega = np.linalg.svd(m_omega)
    return p_tau @ p_omega.conj().T, (vh_omega.conj().T @ vh_tau).T


def sample_unitary_overlap(tau: BipartiteState, omega: BipartiteState, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    n, m_tau, m_omega = len(tau.amplitudes), tau.amplitudes, omega.amplitudes
    u, v = _aligning_pair(m_tau, m_omega)
    eye = np.eye(n)
    best = float(_overlaps(m_tau, m_omega, np.stack([eye, u]), np.stack([eye, v])).max())
    for block in _sampled_overlaps(m_tau, m_omega, trials, rng):
        best = max(best, float(block.max()))
    return min(1.0, best)


def _tail_sums(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


def _excess(tails_a: np.ndarray, branches: np.ndarray) -> np.ndarray:
    return (_tail_sums(branches) - tails_a)[..., 1:]


def _feasible(tails_a: np.ndarray, weights: np.ndarray, branches: np.ndarray) -> np.ndarray:
    return np.all(np.einsum("bk,bkn->bn", weights, _excess(tails_a, branches)) <= 0.0, axis=-1)


def _dominating_variants(a: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    g, n = np.tile(a, (m, 1)), len(a)
    idx, shifts = np.arange(m), rng.integers(1, 4, size=m)
    for step in range(3 if n > 1 else 0):
        j = rng.integers(1, n, size=m)
        i = rng.integers(0, j)
        amount = rng.random(m) * g[idx, j] * (step < shifts)
        g[idx, j] -= amount
        g[idx, i] += amount
        g = np.sort(g)[:, ::-1]
    g[np.any(_excess(_tail_sums(a), g) > 0.0, axis=-1)] = a
    return g


def sample_feasible_ensembles(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, count: int, seed: int
) -> list[float]:
    rng = np.random.default_rng(seed)
    a_arr, b_arr = pad_pair(alpha, beta)
    n, k_max, tails_a = len(a_arr), _ENSEMBLE_MAX_BRANCHES, _tail_sums(a_arr)
    cap = max(1, _ENSEMBLE_BATCH_ELEMENTS // (k_max * n))
    values = [aligned_fidelity(alpha, beta)]
    while len(values) < count:
        batch = min(count - len(values), cap)
        live = np.arange(k_max) < rng.integers(1, k_max + 1, size=(batch, 1))
        weights = rng.standard_exponential((batch, k_max)) * live
        weights /= weights.sum(axis=1, keepdims=True)
        kind = np.where(live, rng.integers(0, 4, size=(batch, k_max)), 0)
        branches = np.tile(a_arr, (batch, k_max, 1))
        branches[kind == 2] = b_arr
        mixed = kind == 3
        branches[mixed] = np.sort(rng.dirichlet(np.ones(n), size=int(mixed.sum())))[:, ::-1]
        varied = (kind == 1) | (live & ~_feasible(tails_a, weights, branches)[:, None])
        branches[varied] = _dominating_variants(a_arr, int(varied.sum()), rng)
        overlaps = np.minimum(1.0, np.sqrt(branches * b_arr).sum(axis=-1) ** 2)
        averages = (weights * overlaps).sum(axis=1)
        values.extend(averages[_feasible(tails_a, weights, branches)].tolist())
    return values
