"""Convertibility tests between Schmidt spectra.

Deterministic convertibility is a family of partial-sum comparisons; the
optimal conclusive conversion probability is the worst ratio of the two
spectra's tail sums.  Both read a ``PaddedPair``: the two spectra zero-padded
to a common length, with their tail sums, built once per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectra import SchmidtSpectrum

# Inputs carry SVD-scale noise (~1e-13); strict comparisons would misclassify
# the exact-equality boundary at the full sum.
PARTIAL_SUM_TOL = 1e-10


class PaddedPair(NamedTuple):
    """A source/target pair zero-padded to a common length.

    ``ta[l-1]`` and ``tb[l-1]`` are the tail sums from level l down to the
    last level.  The spectra are validated already, so padding copies their
    coefficients without building or checking new spectra.
    """

    a: np.ndarray
    b: np.ndarray
    ta: np.ndarray
    tb: np.ndarray


def pad_pair(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> PaddedPair:
    """Pad both spectra to the longer length and take their tail sums."""
    size = max(len(alpha), len(beta))
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(alpha)] = alpha.probs
    b[: len(beta)] = beta.probs
    return PaddedPair(a, b, a[::-1].cumsum()[::-1], b[::-1].cumsum()[::-1])


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


def verdict(pair: PaddedPair) -> ConvertibilityVerdict:
    """``majorizes`` on a padded pair."""
    gaps = pair.b.cumsum() - pair.a.cumsum()
    margin = float(gaps.min())
    deterministic = margin >= -PARTIAL_SUM_TOL
    failing = None
    if not deterministic:
        failing = int(np.argmax(gaps < -PARTIAL_SUM_TOL)) + 1
    return ConvertibilityVerdict(deterministic, failing, margin)


def tail_ratio_min(pair: PaddedPair) -> float:
    """``conclusive_probability`` on a padded pair."""
    mask = pair.tb > 0.0
    ratios = pair.ta[mask] / pair.tb[mask]
    return float(min(1.0, max(0.0, ratios.min())))


def majorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> ConvertibilityVerdict:
    """Can alpha be converted into beta deterministically?

    True exactly when every leading partial sum of alpha stays at or below
    the corresponding partial sum of beta (within PARTIAL_SUM_TOL).
    """
    return verdict(pad_pair(alpha, beta))


def weak_submajorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, p: float) -> bool:
    """Can alpha reach beta conclusively with success probability p?

    Holds when every tail sum of alpha dominates the p-scaled tail sum of
    beta (within PARTIAL_SUM_TOL).  The predicate is downward-closed in p;
    its supremum over p in [0, 1] is ``conclusive_probability``.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range [0, 1]: {p!r}")
    pair = pad_pair(alpha, beta)
    return bool(np.all(pair.ta >= p * pair.tb - PARTIAL_SUM_TOL))


def conclusive_probability(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> float:
    """Best probability of converting alpha into exactly beta.

    min over levels l of tail(alpha, l) / tail(beta, l), clamped to [0, 1].
    Levels where beta's tail vanishes impose no constraint; a vanishing alpha
    tail against a positive beta tail forces probability 0.
    """
    return tail_ratio_min(pad_pair(alpha, beta))
