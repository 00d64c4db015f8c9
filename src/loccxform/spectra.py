"""Schmidt spectra of bipartite pure states and the primitives built on them.

A state is represented either by its complex amplitude matrix in a fixed
product basis, or directly by its spectrum of squared Schmidt coefficients.
Everything downstream (convertibility, optimal conversion, metrics) consumes
spectra only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

# Tolerances: the package's only ones, each a rounding allowance with what it guards and its size.
#
# Rounding drift allowed in a spectrum's sum or a [0, 1] bound: above n * eps for any n up to 4500,
# and SchmidtSpectrum certifies a sum within it without math.fsum for n up to about 9000.
NORMALIZATION_ATOL = 1e-12
# Most drift of an input sum or norm from 1 that is renormalized, not rejected: six-digit input.
NORMALIZATION_ACCEPT = 1e-6
# Slack in partial-sum dominance: 1000 times the noise near 1e-13 that an SVD leaves in a spectrum.
PARTIAL_SUM_TOL = 1e-10
# Tail ratios closer than this tie, and ties go to the smaller level: a few thousand ulps of 1.
RATIO_TIE_TOL = 1e-12
# Fidelities closer than this are equal (so 1 - f below it snaps f to 1): as precise as the spectra.
FIDELITY_SNAP = 1e-12
# Slack for a sampled overlap above the aligned fidelity; the excess seen in practice is near 1e-15.
SAMPLED_OVERLAP_TOL = 1e-9
# Slack between an oracle value and the closed form it checks; differences seen are near 1e-16.
ORACLE_TOL = 1e-10

# Unit roundoff of float64 (2**-53), and NORMALIZATION_ATOL less what rounding a test against it costs.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
_CERTIFIED_ATOL = NORMALIZATION_ATOL * (1.0 - 8 * _UNIT_ROUNDOFF)


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Squared Schmidt coefficients: nonincreasing, nonnegative, summing to 1.

    ``probs`` is a read-only float64 copy of the input.  Unsorted input is
    sorted (the ``resorted`` flag records that this happened); a sum drifting
    from 1 by at most ``NORMALIZATION_ACCEPT`` is renormalized, anything worse
    raises ``ValueError``.  Spectra compare and hash by their coefficients.
    """

    probs: np.ndarray
    resorted: bool = field(init=False)

    def __post_init__(self) -> None:
        vals = np.array(self.probs, dtype=float)
        if vals.ndim != 1 or not vals.size:
            raise ValueError(f"spectrum must be a non-empty vector, got shape {vals.shape}")
        low = vals[vals.argmin()]  # min's reduction setup costs ~2 us at small n; argmin's does not
        if low < 0.0:
            if low < -NORMALIZATION_ATOL:
                raise ValueError(f"negative probability in spectrum: {low}")
            vals[vals < 0.0] = 0.0
        resorted = bool(np.count_nonzero(vals[:-1] < vals[1:]))
        if resorted:
            vals[::-1].sort(kind="stable")  # equal entries (0.0, -0.0) keep their order
        # Certified sum (Higham 2002, sec. 4.2): adding n nonnegative floats in any order gives s with
        # |s - S| <= g*S, S the exact sum, g = (n-1)u / (1 - (n-1)u); fsum gives S(1 + d), |d| <= u.
        # So |fsum - 1| <= |s - 1| + (g + u)S <= |s - 1| + n*u*s / (1 - 2n*u): within ATOL (less 8u
        # for this test's own rounding), fsum would neither raise nor renormalize, and is skipped.
        certified = False
        if low == low and vals[0] <= 1.0:  # no NaN (argmin finds any), so s cannot overflow
            s, n_u = float(np.add.reduce(vals)), vals.size * _UNIT_ROUNDOFF
            certified = abs(s - 1.0) + n_u * s / (1.0 - 2 * n_u) <= _CERTIFIED_ATOL
        if not certified:
            try:
                total = math.fsum(vals.tolist())
            except OverflowError:  # finite entries whose sum leaves the float range
                total = math.inf
            # NaN fails every comparison above; the sum is where it shows.
            if not math.isfinite(total):
                raise ValueError(f"spectrum entries must be finite: sum = {total!r}")
            if abs(total - 1.0) > NORMALIZATION_ACCEPT:
                raise ValueError(f"spectrum not normalized: sum = {total!r}")
            if abs(total - 1.0) > NORMALIZATION_ATOL:
                vals /= total
        vals.setflags(write=False)
        object.__setattr__(self, "probs", vals)
        object.__setattr__(self, "resorted", resorted)

    def __eq__(self, other: object) -> bool:
        if type(other) is not SchmidtSpectrum:
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        return hash((self.probs + 0.0).tobytes())  # -0.0 == 0.0, and -0.0 + 0.0 is 0.0

    @classmethod
    def uniform(cls, n: int) -> "SchmidtSpectrum":
        """Maximally entangled spectrum with n equal coefficients."""
        if n < 1:
            raise ValueError("dimension must be positive")
        return cls(np.full(n, 1.0 / n))

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.probs))

    def as_array(self) -> np.ndarray:
        """A writable copy of ``probs``."""
        return self.probs.copy()

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure state of an n x n system as its amplitude matrix.

    The Frobenius norm must be 1 up to ``NORMALIZATION_ACCEPT``; small drift
    is renormalized away so the stored matrix has unit norm within 1e-12.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"amplitude matrix must be square, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm):
            raise ValueError(f"amplitudes must be finite: |amplitudes| = {norm!r}")
        if abs(norm - 1.0) > NORMALIZATION_ACCEPT:
            raise ValueError(f"state not normalized: |amplitudes| = {norm!r}")
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dims(self) -> int:
        return self.amplitudes.shape[0]


def schmidt_spectrum(state: BipartiteState) -> SchmidtSpectrum:
    """Spectrum of squared singular values of the amplitude matrix."""
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    probs = sv.astype(float) ** 2
    probs /= probs.sum()
    return SchmidtSpectrum(probs)


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


def pad_pair(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, size: int = 0) -> PaddedPair:
    """Pad both spectra to the longer length, or to ``size`` if that is
    longer, and take their tail sums."""
    size = max(len(alpha), len(beta), size)
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(alpha)] = alpha.probs
    b[: len(beta)] = beta.probs
    return PaddedPair(a, b, a[::-1].cumsum()[::-1], b[::-1].cumsum()[::-1])


def pad_to_common(a: SchmidtSpectrum, b: SchmidtSpectrum) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """Zero-pad the shorter spectrum so both have the same length."""
    pair = pad_pair(a, b)
    return SchmidtSpectrum(pair.a), SchmidtSpectrum(pair.b)


def aligned_fidelity(tau: SchmidtSpectrum, omega: SchmidtSpectrum) -> float:
    """Best overlap of two states under local basis changes.

    Equals (sum_i sqrt(tau_i * omega_i))**2 with both spectra sorted; this is
    the largest |<tau|(U x V)|omega>|**2 over local unitaries U, V.
    """
    pair = pad_pair(tau, omega)
    amp = float(np.sqrt(pair.a * pair.b).sum())
    return min(1.0, amp * amp)


def tensor(a: SchmidtSpectrum, b: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of the composite state: all pairwise products, sorted."""
    prod = np.outer(a.probs, b.probs).ravel()
    prod[::-1].sort()
    return SchmidtSpectrum(prod)


def trace_distance_from_fidelity(f: float) -> float:
    """Trace distance between pure states with overlap f: 2*sqrt(1-f)."""
    if not -NORMALIZATION_ATOL <= f <= 1.0 + NORMALIZATION_ATOL:  # NaN fails too
        raise ValueError(f"fidelity out of range [0, 1]: {f!r}")
    f = min(1.0, max(0.0, f))
    return 2.0 * math.sqrt(1.0 - f)


# Types a JSON number decodes to; true and false decode to bool, not int.
_JSON_NUMBERS = {int, float}


def parse_state_dict(obj: object) -> SchmidtSpectrum | BipartiteState:
    """Decode the JSON state encoding.

    Accepts {"schmidt": [p1, p2, ...]} or {"amplitudes": [[[re, im], ...], ...]}
    (row-major n x n); exactly one of the two keys must be present.  Every
    entry must be a JSON number; NaN and infinities are rejected with the
    spectrum or state they would enter.
    """
    if not isinstance(obj, dict):
        raise ValueError("state must be a JSON object")
    keys = {"schmidt", "amplitudes"} & set(obj)
    if len(keys) != 1:
        raise ValueError('state needs exactly one of "schmidt" or "amplitudes"')
    if "schmidt" in obj:
        probs = obj["schmidt"]
        if not isinstance(probs, list) or not probs or not set(map(type, probs)) <= _JSON_NUMBERS:
            raise ValueError('"schmidt" must be a non-empty list of numbers')
        try:
            return SchmidtSpectrum(probs)
        except OverflowError as exc:  # an integer literal past the float range
            raise ValueError(f'"schmidt" entry out of range: {exc}') from exc
    rows = obj["amplitudes"]
    if not isinstance(rows, list) or not rows:
        raise ValueError('"amplitudes" must be a non-empty matrix')
    try:
        entries = list(chain.from_iterable(rows))
        numbers = list(chain.from_iterable(entries))
        well_formed = (
            len(set(map(len, rows))) == 1
            and set(map(len, entries)) == {2}
            and set(map(type, numbers)) <= _JSON_NUMBERS
        )
        pairs = np.array(numbers, dtype=float).reshape(len(rows), -1, 2) if well_formed else None
    except (TypeError, OverflowError):
        pairs = None
    if pairs is None:
        raise ValueError('"amplitudes" entries must be [re, im] pairs of numbers')
    return BipartiteState(pairs.view(complex)[..., 0])
