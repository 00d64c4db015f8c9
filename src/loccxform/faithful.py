"""Convertibility tests and the optimal deterministic approximation of one
entangled spectrum by another, all read from one ``tail_chain``: the tail sums
T_alpha(l), T_beta(l) of the spectra zero-padded to a common length.

Its ``margin`` at p, the smallest T_alpha - p T_beta, decides conversion with
probability p (deterministic at p = 1: M. A. Nielsen, PRL 83, 436 (1999))
within PARTIAL_SUM_TOL, by the rule ``_dominates`` alone spells; the best
conclusive probability is its smallest slope from the origin.

When a source state cannot reach a target exactly, the best reachable state
is found from the same tail sums.  Plot the points (T_beta(l), T_alpha(l))
for the levels l = n+1 (the origin) up to l = 1 (the point (1, 1)); the
levels where the lower convex hull of these points bends are the block
starts.  On the block running from level ``start`` up to the previous start
minus one, the target spectrum is rescaled by the hull edge's slope, the
ratio of the source mass to the target mass on the block.  The rescaled
target is the closest state the source can reach, and the achieved overlap
is (sum over blocks of sqrt(source mass * target mass))**2.

Fidelity and distance.  Only a pair whose chain dominates, T_alpha >= T_beta
at every level (its ``margin`` is >= 0), reports f_opt = 1 and distance 0.
Any other pair, also one deterministic within ``PARTIAL_SUM_TOL``, reports
the fidelity F and distance 2 sqrt(1 - F) of its normalised blocks S_k / s,
T_k / t (s, t their sums): as u = sum_k (sqrt(S_k) - sqrt(T_k))**2 / 2 =
sqrt(s t) (1 - sqrt(F)) + (sqrt(s) - sqrt(t))**2 / 2, w = u - (s - t)**2 / 8
(0 if rounding puts it below) is 1 - sqrt(F) to a relative |sqrt(s t) - 1|,
f_opt = (1 - w)**2 and the distance 2 sqrt(w (2 - w)).  No step cancels: a
root difference is (S_k - T_k) / (sqrt(S_k) + sqrt(T_k)).  Where w is below a
quarter ulp of 1, f_opt reads 1.0 though the distance is positive.

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

Record tests.  Right after the first round, each survivor P is compared once
with running extrema over the other survivors.  With s = y / x a point's
slope from the origin, E the last point and e a point's slope to E, P is
dropped when s_P exceeds the smallest s of a later survivor by more than
RATIO_TIE_TOL + 64 eps s_P (origin test), or when the largest e of an
earlier survivor, e_max, exceeds e_P by more than
(RATIO_TIE_TOL + 64 eps) x_P / (x_E - x_P) + 64 eps e_max (end test).

Why no vertex is dropped.  Let H be the exact lower hull; the origin and E
are its vertices.  If a point V lies d >= 0 above H, the line from V at the
smallest slope from V stays within d of H to the right of V: up to the next
hull vertex G it runs under the chord VG, which is within d of H since H is
straight there, and past G its slope is at most H's.  So the scan's pick W
from V lies within d + RATIO_TIE_TOL (x_W - x_V) of H, and the farthest point
of smallest slope within d, up to rounding.  From the origin on, every scan
vertex and every smallest-slope point P therefore lies within
RATIO_TIE_TOL x_P + 5 eps (y_P + RATIO_TIE_TOL x_P) of H: each step's slope
rounding adds under 5 eps (sigma + RATIO_TIE_TOL)(x_W - x_V), sigma being the
step's smallest slope, and the steps' sigma (x_W - x_V) add up to at most y_P.
As H(x) <= x y_E / x_E, with y_E / x_E = 1 up to rounding, that is under
(RATIO_TIE_TOL + 6 eps) x_P.  Origin test: H is convex with H(0) = 0, so
H(x) / x never decreases, and a later R has s_R >= H(x_R) / x_R >= H(x_P) /
x_P, so s_P exceeds s_R by under RATIO_TIE_TOL + 5 eps (s_P + RATIO_TIE_TOL);
with the rounding of the quotients and of the test, under RATIO_TIE_TOL +
13 eps s_P (a dropped P has s_P > RATIO_TIE_TOL).  End test: the chord slope
(y_E - H(x)) / (x_E - x) never decreases in x, and an earlier Q lies on or
above H, so e_Q <= e_P + (RATIO_TIE_TOL + 6 eps) x_P / (x_E - x_P); rounding
adds under 7 eps x_P / (x_E - x_P) + 5 eps e_max in all.  The bands cover
both with room, so every such P passes both tests, and the pre-pass argument
holds as written: the pass over the survivors gives the same vertices bit
for bit.  A slope from the origin that overflows to inf keeps its point, and
the smallest later one is finite, being at most E's, about 1; slopes to E
cannot overflow, as x_E - x_P is at least half an ulp of x_E, about 1.  In
exact arithmetic every point after a scan vertex has a larger s than the
vertex, so the origin band's RATIO_TIE_TOL only guards rounding; ties near E
make the end band's x_P / (x_E - x_P) term needed.

Convex short-circuit.  If a round drops nothing and every P with neighbours
L and R has o - t > e * (1 + p / q), the chain is convex with room.  In exact
arithmetic slope(L, Q) >= slope(L, R) for every Q beyond P, and
slope(L, R) - t = (o - t) q / (p + q) > e, which exceeds ``RATIO_TIE_TOL``
plus the rounding in the scan's comparison.  So from each point the next one
is the only point within the ties: every point is a vertex, and no Python
loop runs.  The one-block-per-level worst case (cubic decay into uniform,
n = 4096) takes this path after one round, before the record tests run.

Two paths.  A pair padded to fewer than ``_FLOAT_PATH_LEVELS`` levels takes
the floats path: Python lists, tail sums added one level at a time, the hull
pass above, ``math.sqrt`` and ``math.fsum``; only the staircase's columns
and xi become arrays.  Longer pairs take the array path, with the pre-pass.
Both paths do the same floating-point operations in the same order (numpy's
cumsum adds one element at a time, and its sqrt and division round as
Python's do), so they agree bit for bit on every field of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import Callable, NamedTuple

import numpy as np

from .spectra import PARTIAL_SUM_TOL, RATIO_TIE_TOL, SchmidtSpectrum, pad_pair, real_in_range

# Pairs padded to fewer levels take the floats path: there numpy's fixed cost
# per call outweighs the arithmetic (crossover in README.md).
_FLOAT_PATH_LEVELS = 36
# Chains with fewer points skip the pre-pass, and its rounds stop below it:
# there a round costs more than the hull loop it saves (crossover in CHANGES.md).
_PREPASS_MIN_POINTS = 64
# Rounding slack of the pre-pass and record-test bands, relative to the slopes (see above).
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


@dataclass(frozen=True, eq=False)
class TransformReport:
    """Bundled answer for one source/target pair.  Reports compare by
    identity, as their staircases do; compare ``f_opt``, ``xi`` and
    ``staircase.segments`` for equal answers."""

    f_opt: float
    xi: SchmidtSpectrum
    trace_distance: float
    conclusive_p: float
    deterministic: bool
    staircase: Staircase


@dataclass(frozen=True)
class ConvertibilityVerdict:
    """Outcome of ``majorizes``: ``margin`` is the smallest partial-sum gap (target minus
    source) over all prefixes; ``failing_index`` is the first 1-indexed prefix whose gap
    drops below -PARTIAL_SUM_TOL, or None when none does."""

    deterministic: bool
    failing_index: int | None
    margin: float


def _records(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the chain points, x and y, that pass the origin and end
    record tests of the module docstring; the ends always pass."""
    s = y[1:] / x[1:]  # slopes from the origin; the last point's is about 1
    run = x[-1] - x[:-1]
    e = (y[-1] - y[:-1]) / run  # slopes to the last point
    # the smallest s from each point on and the largest e up to it: a point's
    # own value counts too, which never drops it
    later = np.minimum.accumulate(s[::-1])[:0:-1]
    earlier = np.maximum.accumulate(e)[1:]
    s, e = s[:-1], e[1:]
    drop = s - later > RATIO_TIE_TOL + _SLOPE_SLACK * s
    drop |= earlier - e > (RATIO_TIE_TOL + _SLOPE_SLACK) * (x[1:-1] / run[1:]) + _SLOPE_SLACK * earlier
    return np.flatnonzero(np.concatenate(([True], ~drop, [True])))


def _prune(points: np.ndarray) -> tuple[np.ndarray, bool]:
    """Indices of the points the pre-pass keeps, and whether all are vertices.

    ``points`` holds the chain bottom first, x in row 0 and y in row 1; the
    ends are kept.  The record tests run once, after the first round.  Rounds
    go on while ``_PREPASS_MIN_POINTS`` or more points are left and the last
    round, with the record tests after the first, dropped at least an eighth
    of them; past that, the next rounds save less hull-loop time than they
    cost.
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
            if not concave.any():
                return keep, bool(np.all(o - t > band * (1.0 + p / q)))
            rest = np.flatnonzero(np.concatenate(([True], ~concave, [True])))
            if len(keep) == points.shape[1]:  # the first round: later ones start with fewer points
                rest = rest.take(_records(x.take(rest), y.take(rest)))
            shrunk = 8 * len(rest) <= 7 * len(keep)
            keep, x, y = keep.take(rest), x.take(rest), y.take(rest)
            if not shrunk:
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


def _build(points: np.ndarray, a: np.ndarray) -> Staircase:
    """Blocks of the lower hull of a pair's ``tail_chain``, ``points``; the
    source's padded coefficients ``a`` give the dimension, the larger support."""
    m = points.shape[1] - 1
    n = max(int(np.count_nonzero(a)), m)
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


def tail_chain(pair: np.ndarray) -> np.ndarray:
    """A padded pair's tail sums, both rows in one cumsum adding one level at a time from the
    last: row 0 holds T_beta and row 1 T_alpha, at the origin, then at levels m..1, m being
    beta's support.  Levels past m add no target mass, and constrain nothing that reads this."""
    m = int(np.count_nonzero(pair[1]))
    if m == 0:
        raise ValueError("target spectrum is all zero")
    points = np.zeros((2, m + 1))
    points[:, 1:] = pair[::-1, ::-1].cumsum(axis=1)[:, -m:]
    return points


def margin(points: np.ndarray, p: float = 1.0) -> float:
    """The smallest T_alpha - p T_beta over a pair's ``tail_chain``."""
    return float((points[1] - p * points[0]).min())


def _dominates(gap: float | np.ndarray) -> bool | np.ndarray:
    """Does a gap T_alpha - p T_beta (or each of an array of them) pass, within the tolerance?"""
    return gap >= -PARTIAL_SUM_TOL


def tail_ratio_min(points: np.ndarray) -> float:
    """``conclusive_probability`` on a pair's ``tail_chain``: its smallest slope from the origin."""
    # a subnormal beta tail can overflow a ratio to inf, which never wins the minimum
    with np.errstate(over="ignore"):
        ratios = points[1, 1:] / points[0, 1:]
    return float(min(1.0, max(0.0, ratios.min())))


def majorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> ConvertibilityVerdict:
    """Can alpha be converted into beta deterministically?

    True exactly when every leading partial sum of alpha stays at or below
    the corresponding partial sum of beta (within PARTIAL_SUM_TOL).
    """
    points = tail_chain(pad_pair(alpha, beta))
    gap = margin(points)
    if _dominates(gap):
        return ConvertibilityVerdict(True, None, gap)
    # prefix l - 1 has gap T_alpha(l) - T_beta(l), the chain's point m + 1 - l (m beta's
    # support); past m no prefix fails, so the last failing point's prefix is the first
    gaps = points[1] - points[0]
    return ConvertibilityVerdict(False, int(np.argmax(~_dominates(gaps[::-1]))), gap)


def weak_submajorizes(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, p: float) -> bool:
    """Can alpha reach beta conclusively with success probability p?

    Holds when every tail sum of alpha dominates the p-scaled tail sum of
    beta (within PARTIAL_SUM_TOL).  The predicate is downward-closed in p;
    its supremum over p in [0, 1] is ``conclusive_probability``.
    """
    real_in_range(p, "probability", 0.0, 1.0, "[0, 1]")
    return _dominates(margin(tail_chain(pad_pair(alpha, beta)), p))


def conclusive_probability(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> float:
    """Best probability of converting alpha into exactly beta.

    min over levels l of tail(alpha, l) / tail(beta, l), clamped to [0, 1].
    Levels where beta's tail vanishes impose no constraint; a vanishing alpha
    tail against a positive beta tail forces probability 0.
    """
    return tail_ratio_min(tail_chain(pad_pair(alpha, beta)))


def _short_chain(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum
) -> tuple[list[float], int, list[float], list[float]]:
    """The floats path's padded pair: beta's padded coefficients, the dimension and
    ``tail_chain``'s rows as lists (x from T_beta, y from T_alpha: the origin, then levels
    m..1), each tail sum added one level at a time from the last, as numpy's cumsum adds
    them, so that every value equals the array path's bit for bit."""
    size = max(len(alpha), len(beta))
    a, b = alpha.probs.tolist(), beta.probs.tolist()
    a += [0.0] * (size - len(a))
    b += [0.0] * (size - len(b))
    m = size - b.count(0.0)  # spectra are sorted, so their zeros come last
    n = max(size - a.count(0.0), m)
    xs = [0.0, *list(accumulate(reversed(b)))[size - m :]]
    ys = [0.0, *list(accumulate(reversed(a)))[size - m :]]
    return b, n, xs, ys


def _short_blocks(xs: list[float], ys: list[float]) -> tuple[list[int], list[float], list[float]]:
    """The chain's hull vertices and each block's source and target mass."""
    keep = _hull_vertices(xs, ys)
    hull_x, hull_y = itemgetter(*keep)(xs), itemgetter(*keep)(ys)  # the chain has 2+ points
    return keep, list(map(sub, hull_y[1:], hull_y)), list(map(sub, hull_x[1:], hull_x))


def _answer(gap: float, blocks: Callable[[], tuple[list[float], float]]) -> tuple[float, float, bool]:
    """f_opt, the trace distance and the verdict from the chain's margin ``gap``, the min of
    T_alpha - T_beta: 1 and 0 where it is >= 0, else from ``blocks()``, the blocks' squares and drift."""
    if gap >= 0.0:
        return 1.0, 0.0, True
    squares, drift = blocks()
    w = max(0.0, math.fsum(squares) / 2 - drift * drift / 8)
    root = 1.0 - w
    return root * root, 2.0 * math.sqrt(w * (2.0 - w)), _dominates(gap)


def _short_squares(source: list[float], target: list[float]) -> tuple[list[float], float]:
    """The floats path's blocks' (sqrt(S) - sqrt(T))**2 and their drift, the sum of S - T."""
    diffs = list(map(sub, source, target))
    halves = list(map(truediv, diffs, map(add, map(math.sqrt, source), map(math.sqrt, target))))
    *_, drift = accumulate(diffs)
    return list(map(mul, halves, halves)), drift


def _short_report(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> TransformReport:
    """``optimal_fidelity`` on Python floats, in the array path's arithmetic."""
    b, n, xs, ys = _short_chain(alpha, beta)
    keep, source, target = _short_blocks(xs, ys)
    f_opt, distance, deterministic = _answer(min(map(sub, ys, xs)), lambda: _short_squares(source, target))
    m = len(xs) - 1
    ratios = list(map(truediv, source, target))
    lengths = list(map(sub, keep[1:], keep))  # levels per block; the bottom one runs to n
    lengths[0] += n - m
    # beta rescaled block by block, top block first; levels past n stay zero
    gamma = list(map(mul, chain.from_iterable(map(repeat, ratios[::-1], lengths[::-1])), b))
    gamma += [0.0] * (len(b) - n)
    starts = np.array([m + 1 - k for k in keep[1:]])
    blocks = np.array((ratios, source, target))  # rows of a read-only array are read-only
    starts.setflags(write=False)
    blocks.setflags(write=False)
    return TransformReport(
        f_opt=f_opt,
        xi=SchmidtSpectrum(gamma),
        trace_distance=distance,
        # T_alpha / T_beta at the levels where beta has mass: the chain's slopes from the origin
        conclusive_p=min(1.0, max(0.0, min(map(truediv, ys[1:], xs[1:])))),
        deterministic=deterministic,
        staircase=Staircase(starts, *blocks, n),
    )


def _array_squares(staircase: Staircase) -> tuple[list[float], float]:
    """``_short_squares`` on the array path's staircase."""
    source, target = staircase.source_mass, staircase.target_mass
    diffs = source - target
    halves = diffs / (np.sqrt(source) + np.sqrt(target))
    return (halves * halves).tolist(), float(diffs.cumsum()[-1])


def fidelity_verdict(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> tuple[float, float, bool]:
    """``optimal_fidelity(alpha, beta)``'s f_opt, trace distance and deterministic, bit for bit,
    without xi, the conclusive probability, a report, or blocks where the chain dominates."""
    if max(len(alpha), len(beta)) < _FLOAT_PATH_LEVELS:
        _, _, xs, ys = _short_chain(alpha, beta)
        return _answer(min(map(sub, ys, xs)), lambda: _short_squares(*_short_blocks(xs, ys)[1:]))
    pair = pad_pair(alpha, beta)
    points = tail_chain(pair)
    return _answer(margin(points), lambda: _array_squares(_build(points, pair[0])))


def build_staircase(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> Staircase:
    """Block decomposition governing the optimal conversion of alpha to beta.

    Spectra are padded to a common length and trimmed to the larger count of
    nonzero coefficients before scanning.  When alpha has fewer nonzero
    entries than beta, the first block carries ratio 0 exactly (the dilution
    regime).
    """
    pair = pad_pair(alpha, beta)
    return _build(tail_chain(pair), pair[0])


def optimal_state(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> SchmidtSpectrum:
    """The closest state to beta reachable from alpha deterministically.

    Each block of the staircase rescales beta's coefficients by the block
    ratio; the result is nonincreasing, normalized, and dominates alpha's
    partial sums, so the conversion into it is always possible.
    """
    pair = pad_pair(alpha, beta)
    return _rescaled_target(_build(tail_chain(pair), pair[0]), pair[1])


def optimal_fidelity(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> TransformReport:
    """Best fidelity of any deterministic local conversion of alpha toward beta.

    The value is (sum over blocks of sqrt(source_mass * target_mass))**2 and
    coincides with the aligned fidelity between the reachable state and beta.
    Short pairs are solved on Python floats and longer ones with numpy (see
    the module docstring); the two paths agree bit for bit.
    """
    if max(len(alpha), len(beta)) < _FLOAT_PATH_LEVELS:
        return _short_report(alpha, beta)
    pair = pad_pair(alpha, beta)
    points = tail_chain(pair)
    staircase = _build(points, pair[0])
    f_opt, distance, deterministic = _answer(margin(points), lambda: _array_squares(staircase))
    return TransformReport(
        f_opt=f_opt,
        xi=_rescaled_target(staircase, pair[1]),
        trace_distance=distance,
        conclusive_p=tail_ratio_min(points),
        deterministic=deterministic,
        staircase=staircase,
    )
