"""Convertibility tests between Schmidt spectra.

Each test reads the pair's ``tail_chain``, the tail sums of the two spectra
zero-padded to a common length (``pad_pair``), as the optimal conversion
does.  The chain's ``margin`` at p, its smallest T_alpha - p T_beta, decides
conversion with probability p (deterministic at p = 1) within
PARTIAL_SUM_TOL; the best conclusive probability is the chain's worst ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import PARTIAL_SUM_TOL, SchmidtSpectrum, pad_pair, real_in_range, tail_chain


@dataclass(frozen=True)
class ConvertibilityVerdict:
    """Outcome of a deterministic-convertibility test.

    ``margin`` is the smallest partial-sum gap (target minus source) over all
    prefixes; ``failing_index`` is the first 1-indexed prefix whose gap drops
    below -PARTIAL_SUM_TOL, or None when none does.
    """

    deterministic: bool
    failing_index: int | None
    margin: float


def margin(chain: np.ndarray, p: float = 1.0) -> float:
    """The smallest T_alpha - p T_beta over a pair's ``tail_chain``."""
    return float((chain[1] - p * chain[0]).min())


def tail_ratio_min(chain: np.ndarray) -> float:
    """``conclusive_probability`` on a pair's ``tail_chain``: its smallest slope from the origin."""
    # a subnormal beta tail can overflow a ratio to inf, which never wins the minimum
    with np.errstate(over="ignore"):
        ratios = chain[1, 1:] / chain[0, 1:]
    return float(min(1.0, max(0.0, ratios.min())))


def majorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> ConvertibilityVerdict:
    """Can alpha be converted into beta deterministically?

    True exactly when every leading partial sum of alpha stays at or below
    the corresponding partial sum of beta (within PARTIAL_SUM_TOL).
    """
    chain = tail_chain(pad_pair(alpha, beta))
    gap = margin(chain)
    if gap >= -PARTIAL_SUM_TOL:
        return ConvertibilityVerdict(True, None, gap)
    # prefix l - 1 has gap T_alpha(l) - T_beta(l), the chain's point m + 1 - l (m beta's
    # support); past m no prefix fails, so the last failing point's prefix is the first
    gaps = chain[1] - chain[0]
    return ConvertibilityVerdict(False, int(np.argmax(gaps[::-1] < -PARTIAL_SUM_TOL)), gap)


def weak_submajorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, p: float) -> bool:
    """Can alpha reach beta conclusively with success probability p?

    Holds when every tail sum of alpha dominates the p-scaled tail sum of
    beta (within PARTIAL_SUM_TOL).  The predicate is downward-closed in p;
    its supremum over p in [0, 1] is ``conclusive_probability``.
    """
    real_in_range(p, "probability", 0.0, 1.0, "[0, 1]")
    return margin(tail_chain(pad_pair(alpha, beta)), p) >= -PARTIAL_SUM_TOL


def conclusive_probability(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> float:
    """Best probability of converting alpha into exactly beta.

    min over levels l of tail(alpha, l) / tail(beta, l), clamped to [0, 1].
    Levels where beta's tail vanishes impose no constraint; a vanishing alpha
    tail against a positive beta tail forces probability 0.
    """
    return tail_ratio_min(tail_chain(pad_pair(alpha, beta)))
