"""Quadratic reference for the staircase scan, kept to test the hull scan.

``reference_report`` recomputes a ``TransformReport``'s fields the direct
way: pad both spectra, rescan all lower levels for every block (O(n) work per
block), rescale the target block by block, and take the conclusive
probability (``reference_conclusive``), the conclusive predicate
(``reference_weak_submajorizes``) and the deterministic verdict from freshly
computed partial sums and tail sums at every level.  As the package does, it
reports f_opt = 1 and distance 0 where alpha's tail sums are at least beta's at
every level, and otherwise the fidelity and distance of the normalised blocks,
one block at a time (``reference_fidelity_distance``).  It shares no code with
``loccxform.faithful``.
"""

from __future__ import annotations

import math

import numpy as np

from loccxform import SchmidtSpectrum
from loccxform.spectra import PARTIAL_SUM_TOL, RATIO_TIE_TOL


def reference_segments(ta: np.ndarray, tb: np.ndarray, n: int) -> list[tuple[int, float, float, float]]:
    """Iterated minimization of tail-ratio differences, bottom of spectrum up.

    ta, tb hold the tail sums for levels 1..n (0-indexed by level-1).  Each
    round minimizes (ta[l] - ta[prev]) / (tb[l] - tb[prev]) over levels below
    the previous pick, skipping levels where the denominator vanishes, and
    breaks numerical ties toward the smaller level.  Returns (start, ratio,
    source mass, target mass) per block, bottom block first.
    """
    segments = []
    prev = n + 1
    ta_prev = 0.0
    tb_prev = 0.0
    while prev > 1:
        num = ta[: prev - 1] - ta_prev
        den = tb[: prev - 1] - tb_prev
        with np.errstate(over="ignore"):
            ratios = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
        rmin = ratios.min()
        level = int(np.argmax(ratios <= rmin + RATIO_TIE_TOL)) + 1
        source_mass = float(num[level - 1])
        target_mass = float(den[level - 1])
        segments.append((level, source_mass / target_mass, source_mass, target_mass))
        prev = level
        ta_prev = float(ta[level - 1])
        tb_prev = float(tb[level - 1])
    return segments


def reference_fidelity_distance(segments: list[tuple[int, float, float, float]]) -> tuple[float, float]:
    """f = (1 - w)**2 and the distance 2 sqrt(w (2 - w)) of the normalised
    blocks, w = sum_k (sqrt(S_k) - sqrt(T_k))**2 / 2 - (sum_k (S_k - T_k))**2 / 8,
    or 0 where rounding puts it below."""
    squares, drift = [], 0.0
    for _, _, source, target in segments:
        half = (source - target) / (math.sqrt(source) + math.sqrt(target))
        squares.append(half * half)
        drift += source - target
    w = max(0.0, math.fsum(squares) / 2 - drift * drift / 8)
    return (1.0 - w) * (1.0 - w), 2.0 * math.sqrt(w * (2.0 - w))


def padded(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Both spectra zero-padded to the longer length."""
    size = max(len(alpha), len(beta))
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(alpha)] = alpha.probs
    b[: len(beta)] = beta.probs
    return a, b


def full_tails(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Both padded spectra's tail sums at every level, beta's zero tails too."""
    a, b = padded(alpha, beta)
    return np.cumsum(a[::-1])[::-1], np.cumsum(b[::-1])[::-1]


def reference_conclusive(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> float:
    """The smallest ratio of the full tails where beta's tail is positive, clamped to [0, 1]."""
    full_ta, full_tb = full_tails(alpha, beta)
    mask = full_tb > 0.0
    with np.errstate(over="ignore"):
        return float(min(1.0, max(0.0, (full_ta[mask] / full_tb[mask]).min())))


def reference_weak_submajorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, p: float) -> bool:
    """Every full tail of alpha at least p times beta's, within PARTIAL_SUM_TOL."""
    full_ta, full_tb = full_tails(alpha, beta)
    return bool(np.all(full_ta - p * full_tb >= -PARTIAL_SUM_TOL))


def reference_report(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> dict:
    """The fields of ``optimal_fidelity(alpha, beta)``, computed directly."""
    a, b = padded(alpha, beta)
    size = len(a)
    n = max(int(np.sum(a > 0.0)), int(np.sum(b > 0.0)))
    ta = np.cumsum(a[:n][::-1])[::-1]
    tb = np.cumsum(b[:n][::-1])[::-1]
    segments = reference_segments(ta, tb, n)

    gamma = np.zeros(size)
    prev = n + 1
    for start, ratio, _, _ in segments:
        gamma[start - 1 : prev - 1] = ratio * b[start - 1 : prev - 1]
        prev = start
    xi = SchmidtSpectrum(tuple(float(g) for g in gamma))

    margin = float((np.cumsum(b) - np.cumsum(a)).min())
    full_ta, full_tb = full_tails(alpha, beta)
    dominates = bool(np.all(full_ta >= full_tb))
    f_opt, distance = (1.0, 0.0) if dominates else reference_fidelity_distance(segments)

    return {
        "f_opt": f_opt,
        "xi": xi.probs,
        "trace_distance": distance,
        "conclusive_p": reference_conclusive(alpha, beta),
        "deterministic": margin >= -PARTIAL_SUM_TOL,
        "segments": segments,
        "dimension": n,
    }
