"""Quadratic reference for the staircase scan, kept to test the hull scan.

``reference_report`` recomputes a ``TransformReport``'s fields the direct
way: pad both spectra, rescan all lower levels for every block (O(n) work per
block), rescale the target block by block, and take the conclusive
probability and the deterministic verdict from freshly computed partial and
tail sums.  It shares no code with ``loccxform.faithful``.
"""

from __future__ import annotations

import math

import numpy as np

from loccxform import SchmidtSpectrum, trace_distance_from_fidelity
from loccxform.spectra import FIDELITY_SNAP, PARTIAL_SUM_TOL, RATIO_TIE_TOL


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


def reference_report(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> dict:
    """The fields of ``optimal_fidelity(alpha, beta)``, computed directly."""
    size = max(len(alpha), len(beta))
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(alpha)] = alpha.probs
    b[: len(beta)] = beta.probs
    n = max(int(np.sum(a > 0.0)), int(np.sum(b > 0.0)))
    ta = np.cumsum(a[:n][::-1])[::-1]
    tb = np.cumsum(b[:n][::-1])[::-1]
    segments = reference_segments(ta, tb, n)

    amp = math.fsum(math.sqrt(source * target) for _, _, source, target in segments)
    f_opt = min(1.0, amp * amp)
    if 1.0 - f_opt < FIDELITY_SNAP:
        f_opt = 1.0

    gamma = np.zeros(size)
    prev = n + 1
    for start, ratio, _, _ in segments:
        gamma[start - 1 : prev - 1] = ratio * b[start - 1 : prev - 1]
        prev = start
    xi = SchmidtSpectrum(tuple(float(g) for g in gamma))

    full_ta = np.cumsum(a[::-1])[::-1]
    full_tb = np.cumsum(b[::-1])[::-1]
    mask = full_tb > 0.0
    with np.errstate(over="ignore"):
        conclusive = float(min(1.0, max(0.0, (full_ta[mask] / full_tb[mask]).min())))
    margin = float((np.cumsum(b) - np.cumsum(a)).min())

    return {
        "f_opt": f_opt,
        "xi": xi.probs,
        "trace_distance": trace_distance_from_fidelity(f_opt),
        "conclusive_p": conclusive,
        "deterministic": margin >= -PARTIAL_SUM_TOL,
        "segments": segments,
        "dimension": n,
    }
