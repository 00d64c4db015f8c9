"""Optimal deterministic approximation of one entangled spectrum by another.

When a source state cannot reach a target exactly, the best reachable state
is found from the tail sums T_alpha(l), T_beta(l) of the two spectra.  Plot
the points (T_beta(l), T_alpha(l)) for the levels l = n+1 (the origin) up to
l = 1 (the point (1, 1)); the levels where the lower convex hull of these
points bends are the block starts.  On the block running from level ``start``
up to the previous start minus one, the target spectrum is rescaled by the
hull edge's slope, the ratio of the source mass to the target mass on the
block.  The rescaled target is the closest state the source can reach, and
the achieved overlap is (sum over blocks of sqrt(source mass * target mass))**2.

The hull is built by one monotone-chain pass over the levels, bottom first
(A. M. Andrew, Inf. Process. Lett. 9, 216 (1979)), so a pair costs O(n) even
when every level is its own block.  Two rules fix the hull where floating
point leaves it ambiguous:

* ties: slopes within ``RATIO_TIE_TOL`` of an edge's smallest slope count as
  equal, and the edge runs to the highest such point, i.e. the smaller level;
* zero mass: levels that add no target mass (beta's zero tail) are skipped,
  since a block starting there would carry no target mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .majorization import tail_ratio_min, verdict
from .spectra import (
    FIDELITY_SNAP,
    RATIO_TIE_TOL,
    PaddedPair,
    SchmidtSpectrum,
    pad_pair,
    trace_distance_from_fidelity,
)


class Segment(NamedTuple):
    """One block of the construction.

    ``start`` is the 1-indexed lowest level of the block (the block runs from
    ``start`` up to the previous segment's start minus one); ``ratio`` is the
    factor applied to the target spectrum there; ``source_mass`` and
    ``target_mass`` are the two spectra's total weight on the block.
    """

    start: int
    ratio: float
    source_mass: float
    target_mass: float


@dataclass(frozen=True)
class Staircase:
    """Blocks of the optimal-conversion construction, in build order.

    Block starts decrease strictly down to 1; ratios increase (within
    ``RATIO_TIE_TOL``); the masses of either kind telescope to 1.  The hull
    pass guarantees this; the constructor does not check it.
    """

    segments: tuple[Segment, ...]
    dimension: int


@dataclass(frozen=True)
class TransformReport:
    """Bundled answer for one source/target pair."""

    f_opt: float
    xi: SchmidtSpectrum
    trace_distance: float
    conclusive_p: float
    deterministic: bool
    staircase: Staircase


def _hull_segments(ta: list[float], tb: list[float], n: int) -> tuple[Segment, ...]:
    """Blocks of the lower hull of n levels, bottom block first.

    ``ta``/``tb`` hold the tail sums of the levels 1..m where beta has mass;
    the levels m+1..n add no target mass and are skipped.  The pass reproduces, on every prefix of the
    levels, the scan "from the last block start, take the level of smallest
    tail ratio, ties to the smaller level".  Each hull vertex keeps the
    smallest slope seen from it plus ``RATIO_TIE_TOL`` as its tie cap; a new
    point pops the vertex above while its slope from the vertex below is
    within that vertex's cap.  Slopes grow along the hull, so a point that
    misses one vertex's ties misses the ties of every vertex below it too.
    """
    hull = [[n + 1, 0.0, 0.0, math.inf]]  # level, T_beta, T_alpha, tie cap
    for level, x, y in zip(range(len(tb), 0, -1), reversed(tb), reversed(ta)):
        top = hull[-1]
        slope = (y - top[2]) / (x - top[1])
        while len(hull) > 1:
            below = hull[-2]
            from_below = (y - below[2]) / (x - below[1])
            if from_below > below[3]:
                break
            hull.pop()
            top, slope = below, from_below
        top[3] = min(top[3], slope + RATIO_TIE_TOL)
        hull.append([level, x, y, math.inf])
    segments = []
    for (_, x0, y0, _), (level, x, y, _) in zip(hull, hull[1:]):
        source, target = y - y0, x - x0
        segments.append(Segment(level, source / target, source, target))
    return tuple(segments)


def _build(pair: PaddedPair) -> Staircase:
    b_count = int(np.count_nonzero(pair.b))
    if b_count == 0:
        raise ValueError("target spectrum is all zero")
    n = max(int(np.count_nonzero(pair.a)), b_count)
    segments = _hull_segments(pair.ta[:b_count].tolist(), pair.tb[:b_count].tolist(), n)
    return Staircase(segments, n)


def _rescaled_target(staircase: Staircase, b: np.ndarray) -> SchmidtSpectrum:
    """beta rescaled block by block; levels past the staircase stay zero."""
    n = staircase.dimension
    starts, ratios, _, _ = zip(*reversed(staircase.segments))
    lengths = [end - start for start, end in zip(starts, starts[1:] + (n + 1,))]
    gamma = np.zeros(len(b))
    gamma[:n] = np.repeat(ratios, lengths) * b[:n]
    return SchmidtSpectrum(tuple(gamma.tolist()))


def build_staircase(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> Staircase:
    """Block decomposition governing the optimal conversion of alpha to beta.

    Spectra are padded to a common length and trimmed to the larger count of
    nonzero coefficients before scanning.  When alpha has fewer nonzero
    entries than beta, the first block carries ratio 0 exactly (the dilution
    regime).
    """
    return _build(pad_pair(alpha, beta))


def optimal_state(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> SchmidtSpectrum:
    """The closest state to beta reachable from alpha deterministically.

    Each block of the staircase rescales beta's coefficients by the block
    ratio; the result is nonincreasing, normalized, and dominates alpha's
    partial sums, so the conversion into it is always possible.
    """
    pair = pad_pair(alpha, beta)
    return _rescaled_target(_build(pair), pair.b)


def optimal_fidelity(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> TransformReport:
    """Best fidelity of any deterministic local conversion of alpha toward beta.

    The value is (sum over blocks of sqrt(source_mass * target_mass))**2 and
    coincides with the aligned fidelity between the reachable state and beta.
    """
    pair = pad_pair(alpha, beta)
    staircase = _build(pair)
    amp = math.fsum(math.sqrt(seg.source_mass * seg.target_mass) for seg in staircase.segments)
    f_opt = min(1.0, amp * amp)
    if 1.0 - f_opt < FIDELITY_SNAP:
        f_opt = 1.0
    return TransformReport(
        f_opt=f_opt,
        xi=_rescaled_target(staircase, pair.b),
        trace_distance=trace_distance_from_fidelity(f_opt),
        conclusive_p=tail_ratio_min(pair),
        deterministic=verdict(pair).deterministic,
        staircase=staircase,
    )
