"""Independent brute-force verifiers for the optimal-conversion results.

Nothing here calls into the staircase construction: feasibility and fidelity
are recomputed from first principles (partial sums, matrix overlaps) so the
test suite can cross-check the closed-form answers against exhaustive or
sampled search.
"""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .spectra import (
    NORMALIZATION_ACCEPT,
    BipartiteState,
    SchmidtSpectrum,
    aligned_fidelity,
    pad_pair,
    positive_int,
    real_in_range,
    seed_int,
)

DEFAULT_GRID_BUDGET = 10_000_000
BUDGET_ENV = "LOCCXFORM_BUDGET"

# The Monte Carlo overlap matrix is scored in row blocks of at most this many
# entries (or one row, when a row alone is longer): memory stays bounded.
_MC_BLOCK_ELEMENTS = 1 << 16
_ENSEMBLE_MAX_BRANCHES = 4
# A round of ensembles holds at most this many branch coefficients (or a
# single ensemble, when one alone is larger): memory stays bounded at large n.
_ENSEMBLE_BATCH_ELEMENTS = 1 << 18
# Resolutions, thresholds and masses are int64: 1/step must round below 2**63.
_INT64_LIMIT = float(2**63)


class GridBudgetError(ValueError):
    """Raised when a grid's point count, or a trial, ensemble or sweep step count,
    would exceed the budget, LOCCXFORM_BUDGET or the default."""


@dataclass(frozen=True)
class GridSpec:
    """Resolution of a probability-simplex grid search.  The number of grid
    points it may enumerate is capped by LOCCXFORM_BUDGET, or the default."""

    dimension: int
    step: float

    def __post_init__(self) -> None:
        positive_int(self.dimension, "grid dimension")
        # for floats, 0 < step exactly when the smallest subnormal <= step
        real_in_range(self.step, "grid step", math.ulp(0.0), 1.0, "(0, 1]")
        if not 1.0 / float(self.step) < _INT64_LIMIT:  # inf, or a resolution past int64
            raise ValueError(f"grid step too fine for an int64 resolution: {self.step!r}")

    @property
    def resolution(self) -> int:
        return round(1.0 / self.step)


def _grid_budget() -> int:
    """Most grid points a search may enumerate, or samples a sampler may draw:
    LOCCXFORM_BUDGET, or the built-in default."""
    text = os.environ.get(BUDGET_ENV, str(DEFAULT_GRID_BUDGET))
    if text.strip().isdecimal():
        try:
            text = int(text)
        except ValueError:  # decimal digits that int() refuses: past Python's digit limit
            raise ValueError(
                f"{BUDGET_ENV} has {len(text.strip())} digits, more than Python converts to an int"
            ) from None
    return positive_int(text, BUDGET_ENV)


def _count_text(count: int) -> str:
    """``count`` in decimal, or by its bit length past Python's int-to-string digit limit."""
    try:
        return str(count)
    except ValueError:
        return f"a {count.bit_length()}-bit number of"


def check_budget(count: int, what: str) -> None:
    """Refuse a ``count`` of ``what`` over the budget, before anything is drawn or computed."""
    if count > (budget := _grid_budget()):
        raise GridBudgetError(f"{_count_text(count)} {what} exceed the budget of {budget}")


def _batch_random_unitaries(
    counts: tuple[int, ...], n: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """One stack of Haar-random n x n unitaries per count, shapes (count, n, n).

    Each Z = X + iY has independent standard normal entries; the stacks are
    drawn in order, each X before its Y.  Z is invertible with probability
    one, and then has exactly one factorisation Z = QR with Q unitary and R
    upper triangular with a positive real diagonal; that Q is
    Haar-distributed.  LAPACK's QR leaves R's diagonal phases free, so they
    are moved into Q (F. Mezzadri, Notices AMS 54, 592 (2007)).  LAPACK
    factors each matrix of a stack on its own, so one QR call serves every
    stack, and each Q is the one a call on its stack alone would give.
    """
    z = np.concatenate([rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n))
                        for c in counts])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
    return [q[end - c:end] for c, end in zip(counts, itertools.accumulate(counts))]


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
    """Smallest integers t with t/resolution >= each partial sum, computed in exact
    integer arithmetic on each float's ratio so no feasible stratum is ever misclassified."""
    ratios = [value.as_integer_ratio() for value in heads.tolist()]
    return np.array([min(max(-(-num * resolution // den), 0), resolution) for num, den in ratios],
                    dtype=np.int64)


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
    big_n, slots, budget = grid.resolution, int(grid.dimension), _grid_budget()
    # the points are the partitions of big_n into at most k parts, and each
    # orders into at least one and at most k! compositions into k parts: a
    # grid is refused by the lower bound before its exact count is paid for,
    # and the exact count is paid for only when the upper bound is over budget
    k = min(slots, big_n)
    compositions = math.comb(big_n + k - 1, k - 1)
    lower = -(-compositions // math.factorial(k))
    if lower > budget:
        raise GridBudgetError(f"at least {_count_text(lower)} grid points exceed the budget of {budget}")
    if compositions > budget and (points := _grid_size(big_n, slots)) > budget:
        raise GridBudgetError(f"{_count_text(points)} grid points exceed the budget of {budget}")
    # sorted spectra: whatever lies past the dimension is zero padding
    a, b = pad_pair(alpha, beta, slots)
    b, thresholds = b[:slots], _exact_ceil_thresholds(np.cumsum(a[:slots]), big_n)

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
    x, b = pad_pair(xi, beta)
    amp = float(np.sqrt(b * np.maximum(x - 1.0 / grid.resolution, 0.0)).sum())
    return amp * amp


# ---------------------------------------------------------------------------
# Monte Carlo local-unitary overlap sampling
# ---------------------------------------------------------------------------


def _factors(
    m_tau: np.ndarray, m_omega: np.ndarray, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of |<tau|(U_b x V_c)|omega>|^2's amplitude, flattened
    over (i, k): (U_b M_omega)_ik as an (n^2, len(us)) matrix and
    (conj(M_tau) V_c)_ik as an (n^2, len(vs)) one.

    The amplitude Tr(M_tau^H U M_omega V^T) is the sum over (i, k) of
    (U M_omega)_ik (conj(M_tau) V)_ik, bilinear in (U, V), so one product of
    the two factors scores every pair.
    """
    n = len(m_tau)
    left = m_omega.T @ us.T.reshape(n, -1)  # [k, (i, b)]: (U_b M_omega)_ik
    right = m_tau.conj() @ vs.T  # [k, i, c]: (conj(M_tau) V_c)_ik
    return left.reshape(n * n, -1), right.reshape(n * n, -1)


def _overlaps(m_tau: np.ndarray, m_omega: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """|<tau|(U_b x V_c)|omega>|^2 for every U_b in ``us`` and V_c in ``vs``:
    a (len(us), len(vs)) matrix, the product of ``_factors``.

    The product is an einsum, not BLAS: it adds each pair's terms in order
    without fused multiply-adds, so the aligning pair's overlap, the value
    ``verify`` prints, keeps the bits of a term-by-term sum.  Only the
    injected pairs are scored here; ``_sampled_overlaps`` uses BLAS.
    """
    amp = np.einsum("kb,kc->bc", *_factors(m_tau, m_omega, us, vs))
    return amp.real**2 + amp.imag**2


def _sampled_overlaps(
    m_tau: np.ndarray, m_omega: np.ndarray, trials: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """The first ``trials`` entries, in row-major order, of the overlap matrix
    of ceil(sqrt(trials)) Haar U's (drawn first) by ceil(trials / rows) Haar
    V's, in row blocks of at most ``_MC_BLOCK_ELEMENTS`` entries.  Every U is
    scored: (rows - 1) * cols < trials, as (rows - 1)^2 < trials.

    Both stacks come from one QR call, and each block is one BLAS product
    of ``_factors``: its fused multiply-adds may round an entry a few ulps
    away from ``_overlaps``' einsum.  The largest overlap there is, the
    aligning pair's, stays on the einsum.  For n > 1 a Haar pair lands
    within a few ulps of it with probability zero; at n = 1 every pair
    reaches it, but each entry is a single product, which BLAS rounds as
    the einsum does.  So the maximum keeps the einsum's bits.
    """
    rows = math.isqrt(trials - 1) + 1
    us, vs = _batch_random_unitaries((rows, -(-trials // rows)), len(m_tau), rng)
    left, right = _factors(m_tau, m_omega, us, vs)
    step = max(1, _MC_BLOCK_ELEMENTS // len(vs))
    for start in range(0, rows, step):
        amp = left[:, start:start + step].T @ right
        yield (amp.real**2 + amp.imag**2).ravel()[: trials - start * len(vs)]


def _aligning_pair(m_tau: np.ndarray, m_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The local unitaries (U, V) mapping omega's Schmidt bases onto tau's,
    from one stacked SVD of the two amplitude matrices."""
    (p_tau, p_omega), _, (vh_tau, vh_omega) = np.linalg.svd(np.stack([m_tau, m_omega]))
    u = p_tau @ p_omega.conj().T
    v = (vh_omega.conj().T @ vh_tau).T
    return u, v


def sample_unitary_overlap(
    tau: BipartiteState, omega: BipartiteState, trials: int, seed: int
) -> float:
    """Largest sampled overlap |<tau|(U x V)|omega>|^2 over random local pairs.

    U and V act on both states, so both must be n x n for one n (zero-padding
    a rectangular state keeps its spectrum).  The identity and basis-aligning
    pairs are always scored, so the maximum attains the aligned-fidelity
    bound.  The ``trials`` sampled pairs come from a product of about
    sqrt(trials) Haar U's by as many Haar V's, drawn from
    ``np.random.default_rng(seed)``: each is an independent Haar pair, but
    pairs in one row share their U (and in one column their V).  On one
    numpy and LAPACK build, the same seed gives the same result, bit for bit.
    """
    trials = positive_int(trials, "trials")
    check_budget(trials, "trials")
    rng = np.random.default_rng(seed_int(seed))
    n, m_tau, m_omega = len(tau.amplitudes), tau.amplitudes, omega.amplitudes
    if m_tau.shape != (n, n) or m_omega.shape != (n, n):
        raise ValueError(f"states must have equal dimensions, square: {m_tau.shape}, {m_omega.shape}")

    u, v = _aligning_pair(m_tau, m_omega)
    eye = np.eye(n)
    best = float(_overlaps(m_tau, m_omega, np.stack([eye, u]), np.stack([eye, v])).max())
    for block in _sampled_overlaps(m_tau, m_omega, trials, rng):
        best = max(best, float(block.max()))
    return min(1.0, best)


# ---------------------------------------------------------------------------
# Random ensembles compatible with the average-monotone constraints
# ---------------------------------------------------------------------------


def _tail_sums(arr: np.ndarray) -> np.ndarray:
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


def _excess(tails_a: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """T_g(l) - T_a(l) at the levels l = 2..n for each branch g, given the
    branches' tail sums, where T(l) is the tail sum from level l on.  Level 1
    is left out: its tail sum is the total probability, 1 for every
    spectrum, so comparing it would compare two rounded totals of 1."""
    return (tails - tails_a)[..., 1:]


def _feasible(tails_a: np.ndarray, weights: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Which rows keep sum_k w_k (T_k(l) - T_a(l)) <= 0 at every level l >= 2,
    given the (rows, k, n) tail sums T_k of the rows' branches.

    The difference form gives exactly 0 for a copy of a, whatever the weights'
    rounded sum.  Rounding is monotone, so a row stays feasible when a branch
    whose ``_excess`` is nowhere positive replaces a copy of a.
    """
    return np.all(np.einsum("bk,bkn->bn", weights, _excess(tails_a, tails)) <= 0.0, axis=-1)


def ensemble_is_feasible(
    alpha: SchmidtSpectrum, weights: np.ndarray, branches: list[np.ndarray]
) -> bool:
    """Do the weighted branch spectra keep every average tail sum at or below
    alpha's?  (The acceptance condition for a probabilistic conversion.)
    ``weights`` must be a probability vector and each branch a spectrum.

    The test is ``_feasible``'s: sum_k w_k (T_k(l) - T_alpha(l)) <= 0 at the
    levels l = 2..n, with T(l) the tail sum from level l on.  Level 1 holds
    for any spectra (each total is 1), and testing it in floating point only
    compares rounded totals; copies of alpha pass under any weights.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(branches),):
        raise ValueError(f"weights of shape {weights.shape} for {len(branches)} branches")
    if abs(math.fsum(weights) - 1.0) > NORMALIZATION_ACCEPT or not np.all(weights >= 0.0):
        raise ValueError(f"weights must be a probability vector: {weights.tolist()!r}")
    n = max(len(alpha), *map(len, branches))
    pairs = [pad_pair(alpha, SchmidtSpectrum(g), n) for g in branches]
    gs = np.stack([g for _, g in pairs])[None]
    return bool(_feasible(_tail_sums(pairs[0][0]), weights[None] / weights.sum(), _tail_sums(gs))[0])


def _dominating_variants(
    a: np.ndarray, tails_a: np.ndarray, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) spectra with tails at most a's, 1-3 upward mass shifts each, and
    their (m, n) tail sums.

    The rows are kept ascending, reversed, in one C-contiguous buffer: each
    shift scatters through flat indices and each sort is in place, and the
    tail sums are one cumsum along the rows.  Rounding can leave a computed
    tail sum an ulp above a's; such a variant is replaced by a itself, so no
    variant's ``_excess`` is positive.
    """
    n = len(a)
    h = np.empty((m, n))
    h[:] = a[::-1]
    flat, base, shifts = h.ravel(), np.arange(m) * n + (n - 1), rng.integers(1, 4, size=m)
    for step in range(3 if n > 1 else 0):
        j = rng.integers(1, n, size=m)
        i = rng.integers(0, j)
        amount = rng.random(m) * flat[base - j] * (step < shifts)
        flat[base - j] -= amount
        flat[base - i] += amount
        h.sort(axis=1)
    tails = np.cumsum(h, axis=1)[:, ::-1]
    bad = np.any(_excess(tails_a, tails) > 0.0, axis=-1)
    h[bad], tails[bad] = a[::-1], tails_a
    return h[:, ::-1], tails


def sample_feasible_ensembles(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, count: int, seed: int
) -> list[float]:
    """Average overlaps with beta of random feasible probabilistic conversions:
    the do-nothing ensemble {1, alpha}, then batches of up to four weighted
    branches, each alpha, a variant dominating it, beta or a sorted Dirichlet
    draw.  A slot's kind is drawn first and only its branch is built, with
    its tail sums beside it: alpha's and beta's are copied, a Dirichlet
    draw's take one cumsum and the variants come with theirs.  A row that
    fails ``_feasible`` with its variants still standing as alpha has all
    its branches made variants; the round draws every variant in one
    ``_dominating_variants`` call.  Swapping copies of alpha for variants
    cannot make a row fail, so the final test, kept as the oracle's guard,
    drops none."""
    count = positive_int(count, "count")
    check_budget(count, "ensembles")
    rng = np.random.default_rng(seed_int(seed))
    pair = pad_pair(alpha, beta)
    pair_tails = _tail_sums(pair)
    a_arr, b_arr = pair
    tails_a = pair_tails[0]
    # kinds 0-3: alpha, variant (alpha until the variants are drawn), beta, Dirichlet
    kind_rows, kind_tails = pair[[0, 0, 1, 0]], pair_tails[[0, 0, 1, 0]]
    n, k_max = len(a_arr), _ENSEMBLE_MAX_BRANCHES
    cap = max(1, _ENSEMBLE_BATCH_ELEMENTS // (k_max * n))
    values = [aligned_fidelity(alpha, beta)]
    while len(values) < count:
        batch = min(count - len(values), cap)
        # normalised exponentials on the first k slots: Dirichlet(1_k) weights
        live = np.arange(k_max) < rng.integers(1, k_max + 1, size=(batch, 1))
        weights = rng.standard_exponential((batch, k_max)) * live
        weights /= weights.sum(axis=1, keepdims=True)
        # dead slots stand as alpha
        kind = np.where(live, rng.integers(0, 4, size=(batch, k_max)), 0)
        branches, tails = kind_rows[kind], kind_tails[kind]
        mixed = kind == 3
        ascending = np.sort(rng.dirichlet(np.ones(n), size=int(mixed.sum())))
        branches[mixed], tails[mixed] = ascending[:, ::-1], np.cumsum(ascending, axis=1)[:, ::-1]
        varied = (kind == 1) | (live & ~_feasible(tails_a, weights, tails)[:, None])
        branches[varied], tails[varied] = _dominating_variants(a_arr, tails_a, int(varied.sum()), rng)
        overlaps = np.minimum(1.0, np.sqrt(branches * b_arr).sum(axis=-1) ** 2)
        averages = (weights * overlaps).sum(axis=1)
        values.extend(averages[_feasible(tails_a, weights, tails)].tolist())
    return values
