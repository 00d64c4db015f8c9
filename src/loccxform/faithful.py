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

With these rules the hull is the scan "from the last vertex V, take the
farthest point whose slope from V is at most the smallest slope from V plus
``RATIO_TIE_TOL``", with slopes and that sum computed in floating point.

Concavity pre-pass.  A chain of at least ``_PREPASS_MIN_POINTS`` points is
thinned with whole-array operations before the pass.  Take a point P with
neighbours L before it and R after it in the current list, with p = x_P -
x_L, q = x_R - x_P, t = slope(L, P), o = slope(P, R) as computed, and the
band e = 2 * RATIO_TIE_TOL + 64 eps * (t + o).  Each round drops at once
every P with t - o > e * (1 + x_L / p + x_R / q), and the pass then runs on
the survivors.

Why no vertex is dropped.  Follow the scan from the origin, which is never
dropped.  Let V be its current vertex, a survivor, and P a point dropped in
some round with neighbours L and R in that round; V lies at or before L.
Suppose R's slope from V exceeds P's, c, and (when V is not L) c is at most
L's slope a from V plus ``RATIO_TIE_TOL``.  In exact arithmetic, with
h = x_L - x_V <= x_L, c is the average of a and t with weights h and p, and
R's slope is the average of c and o with weights h + p and q.  So o > c and
p (t - c) = h (c - a), which give t - o < t - c <= (x_L / p) RATIO_TIE_TOL;
for V = L, o > c = t outright.  Rounding: a computed slope is within 2 eps
of the exact one, relatively (plus an underflow term far below the
tolerance).  Carried through both suppositions it adds under
18 eps * o * (x_L / p + x_R / q) + 2 eps * (t + o) when q >= 8 eps x_R, and
when q is smaller the band exceeds 8 t.  The band covers all of this with
room to spare, so for a dropped P the suppositions fail: either P is outside
the ties from V and above L's slope, or R lies farther with a slope at most
P's.  Hence neither the scan's pick from V (the farthest point within the
ties) nor the farthest point of smallest slope is a dropped point, since its
R would qualify too and lie farther.  The smallest slope and the pick are
then the same among the survivors, the next vertex is a survivor, and the
pass over the survivors gives the same vertices, so the same blocks bit for
bit.  A slope that overflows to inf makes the band inf, and P is kept.

Convex short-circuit.  If a round drops nothing and every P with neighbours
L and R has o - t > e * (1 + p / q), the chain is convex with room.  In exact
arithmetic slope(L, Q) >= slope(L, R) for every Q beyond P, and
slope(L, R) - t = (o - t) q / (p + q) > e, which exceeds ``RATIO_TIE_TOL``
plus the rounding in the scan's comparison.  So from each point the next one
is the only point within the ties: every point is a vertex, and no Python
loop runs.  The one-block-per-level worst case (cubic decay into uniform,
n = 4096) takes this path after one round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

# Chains with fewer points skip the pre-pass, and its rounds stop below it:
# there a round costs more than the hull loop it saves (crossover in CHANGES.md).
_PREPASS_MIN_POINTS = 64
# Rounding slack of the pre-pass band, relative to the slopes (see above).
_SLOPE_SLACK = 64 * np.finfo(float).eps


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


@dataclass(frozen=True, eq=False)
class Staircase:
    """Blocks of the optimal-conversion construction, bottom block first.

    Read-only arrays with one entry per block: ``starts`` decrease strictly
    down to 1; ``ratios`` increase (within ``RATIO_TIE_TOL``);
    ``source_mass`` and ``target_mass`` each telescope to 1.  The hull pass
    guarantees this; the constructor does not check it.  Staircases compare
    by identity; compare ``segments`` for equal blocks.
    """

    starts: np.ndarray
    ratios: np.ndarray
    source_mass: np.ndarray
    target_mass: np.ndarray
    dimension: int

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The blocks as ``Segment`` tuples, in the same order."""
        columns = (self.starts, self.ratios, self.source_mass, self.target_mass)
        return tuple(map(Segment, *(column.tolist() for column in columns)))


@dataclass(frozen=True)
class TransformReport:
    """Bundled answer for one source/target pair."""

    f_opt: float
    xi: SchmidtSpectrum
    trace_distance: float
    conclusive_p: float
    deterministic: bool
    staircase: Staircase


def _prune(points: np.ndarray) -> tuple[np.ndarray, bool]:
    """Indices of the points the pre-pass keeps, and whether all are vertices.

    ``points`` holds the chain bottom first, x in row 0 and y in row 1; the
    ends are kept.  Rounds go on while ``_PREPASS_MIN_POINTS`` or more points
    are left and the last round dropped at least an eighth of them; past
    that, the next rounds save less hull-loop time than they cost.
    """
    keep = np.arange(points.shape[1])
    x, y = points
    # subnormal target tails overflow slopes to inf; such points are kept
    with np.errstate(over="ignore", invalid="ignore"):
        while len(keep) >= _PREPASS_MIN_POINTS:
            dx = x[1:] - x[:-1]
            slope = (y[1:] - y[:-1]) / dx
            t, o, p, q = slope[:-1], slope[1:], dx[:-1], dx[1:]
            band = 2.0 * RATIO_TIE_TOL + _SLOPE_SLACK * (t + o)
            concave = t - o > band * (1.0 + x[:-2] / p + x[2:] / q)
            dropped = int(np.count_nonzero(concave))
            if not dropped:
                return keep, bool(np.all(o - t > band * (1.0 + p / q)))
            rest = np.flatnonzero(np.concatenate(([True], ~concave, [True])))
            keep, x, y = keep.take(rest), x.take(rest), y.take(rest)
            if 8 * dropped < len(keep) + dropped:
                break
    return keep, False


def _hull_vertices(xs: list[float], ys: list[float]) -> list[int]:
    """Indices of the lower hull's vertices among the points, bottom first.

    The pass reproduces, on every prefix of the points, the scan "from the
    last vertex, take the point of smallest slope, ties to the farther
    point".  Each hull vertex keeps the smallest slope seen from it plus
    ``RATIO_TIE_TOL`` as its tie cap; a new point pops the vertex above while
    its slope from the vertex below is within that vertex's cap.  Slopes grow
    along the hull, so a point that misses one vertex's ties misses the ties
    of every vertex below it too.
    """
    hull = [[0, xs[0], ys[0], math.inf]]  # index, x, y, tie cap
    for i, x, y in zip(range(1, len(xs)), xs[1:], ys[1:]):
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
        hull.append([i, x, y, math.inf])
    return [vertex[0] for vertex in hull]


def _build(pair: PaddedPair) -> Staircase:
    """Blocks of the lower hull of the tail-sum points.

    ``ta``/``tb`` give the points of the levels 1..m where beta has mass; the
    levels m+1..n add no target mass and are skipped, so the chain runs from
    the origin (level n+1) through levels m..1.
    """
    m = int(np.count_nonzero(pair.b))
    if m == 0:
        raise ValueError("target spectrum is all zero")
    n = max(int(np.count_nonzero(pair.a)), m)
    # the chain bottom first: rows T_beta, T_alpha; the origin, then levels m..1
    points = np.zeros((2, m + 1))
    points[0, 1:] = pair.tb[m - 1 :: -1]
    points[1, 1:] = pair.ta[m - 1 :: -1]
    if m + 1 < _PREPASS_MIN_POINTS:
        keep = _hull_vertices(*points.tolist())
    else:
        keep, convex = _prune(points)
        if not convex:
            keep = keep[_hull_vertices(*points.take(keep, axis=1).tolist())]
    hull = points.take(keep, axis=1)
    masses = hull[:, 1:] - hull[:, :-1]
    starts, ratios = np.subtract(m + 1, keep[1:]), masses[1] / masses[0]
    for column in (starts, ratios, masses):
        column.setflags(write=False)
    target, source = masses
    return Staircase(starts, ratios, source, target, n)


def _rescaled_target(staircase: Staircase, b: np.ndarray) -> SchmidtSpectrum:
    """beta rescaled block by block; levels past the staircase stay zero."""
    n = staircase.dimension
    starts = staircase.starts
    lengths = np.empty_like(starts)  # block sizes, bottom block first
    lengths[0] = n + 1
    lengths[1:] = starts[:-1]
    lengths -= starts
    gamma = np.zeros(len(b))
    gamma[:n] = np.repeat(staircase.ratios[::-1], lengths[::-1]) * b[:n]
    return SchmidtSpectrum(gamma)


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
    amp = math.fsum(np.sqrt(staircase.source_mass * staircase.target_mass).tolist())
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
