"""Schmidt spectra of bipartite pure states and the primitives built on them.

A state is represented either by its complex amplitude matrix in a fixed
product basis, or directly by its spectrum of squared Schmidt coefficients.
Everything downstream (convertibility, optimal conversion, metrics) consumes
spectra only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# Stored spectra sum to one within this.
NORMALIZATION_ATOL = 1e-12
# Larger drift than this is rejected as a caller error rather than repaired.
NORMALIZATION_ACCEPT = 1e-6


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients: nonincreasing, nonnegative, summing to 1.

    Unsorted input is sorted (the ``resorted`` flag records that this
    happened); a sum drifting from 1 by at most ``NORMALIZATION_ACCEPT`` is
    renormalized, anything worse raises ``ValueError``.
    """

    probs: tuple[float, ...]
    resorted: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        vals = [float(p) for p in self.probs]
        if not vals:
            raise ValueError("spectrum must have at least one entry")
        low = min(vals)
        if low < 0.0:
            if low < -NORMALIZATION_ATOL:
                raise ValueError(f"negative probability in spectrum: {low}")
            vals = [max(p, 0.0) for p in vals]
        resorted = self.resorted
        if any(map(operator.lt, vals, vals[1:])):
            vals.sort(reverse=True)
            resorted = True
        try:
            total = math.fsum(vals)
        except OverflowError:  # finite entries whose sum leaves the float range
            total = math.inf
        # NaN fails every comparison above; the sum is where it shows.
        if not math.isfinite(total):
            raise ValueError(f"spectrum entries must be finite: sum = {total!r}")
        if abs(total - 1.0) > NORMALIZATION_ACCEPT:
            raise ValueError(f"spectrum not normalized: sum = {total!r}")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            vals = [p / total for p in vals]
        object.__setattr__(self, "probs", tuple(vals))
        object.__setattr__(self, "resorted", resorted)

    @classmethod
    def uniform(cls, n: int) -> "SchmidtSpectrum":
        """Maximally entangled spectrum with n equal coefficients."""
        if n < 1:
            raise ValueError("dimension must be positive")
        return cls(tuple([1.0 / n] * n))

    def padded(self, n: int) -> "SchmidtSpectrum":
        """Copy zero-padded to length n (must not truncate nonzero entries)."""
        if n < self.nonzero_count:
            raise ValueError("cannot pad below the number of nonzero entries")
        probs = self.probs[:n] + (0.0,) * (n - len(self.probs))
        return SchmidtSpectrum(probs, resorted=self.resorted)

    @property
    def nonzero_count(self) -> int:
        return sum(1 for p in self.probs if p > 0.0)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure state of an n x n system as its amplitude matrix.

    The Frobenius norm must be 1 up to ``NORMALIZATION_ACCEPT``; small drift
    is renormalized away so the stored matrix has unit norm within 1e-12.
    """

    amplitudes: np.ndarray
    dims: int | None = None

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
        object.__setattr__(self, "dims", arr.shape[0])


@dataclass(frozen=True)
class MonotoneProfile:
    """Tail sums of a spectrum: tails[l-1] = sum of probs from level l up."""

    tails: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.tails:
            raise ValueError("profile must have at least one entry")
        if abs(self.tails[0] - 1.0) > NORMALIZATION_ATOL:
            raise ValueError("first tail sum must be 1")
        if any(self.tails[i] < self.tails[i + 1] for i in range(len(self.tails) - 1)):
            raise ValueError("tail sums must be nonincreasing")

    def tail(self, level: int) -> float:
        """1-indexed tail sum; levels past the end are 0."""
        if level < 1:
            raise ValueError("level is 1-indexed")
        if level > len(self.tails):
            return 0.0
        return self.tails[level - 1]

    def __len__(self) -> int:
        return len(self.tails)


def schmidt_spectrum(state: BipartiteState) -> SchmidtSpectrum:
    """Spectrum of squared singular values of the amplitude matrix."""
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    probs = sv.astype(float) ** 2
    probs /= probs.sum()
    return SchmidtSpectrum(tuple(probs))


def monotones(s: SchmidtSpectrum) -> MonotoneProfile:
    """All tail sums of the spectrum, from the full sum down to the last entry."""
    tails = np.cumsum(s.as_array()[::-1])[::-1]
    return MonotoneProfile(tuple(float(t) for t in tails))


def pad_to_common(a: SchmidtSpectrum, b: SchmidtSpectrum) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """Zero-pad the shorter spectrum so both have the same length."""
    n = max(len(a), len(b))
    return a.padded(n), b.padded(n)


def aligned_fidelity(tau: SchmidtSpectrum, omega: SchmidtSpectrum) -> float:
    """Best overlap of two states under local basis changes.

    Equals (sum_i sqrt(tau_i * omega_i))**2 with both spectra sorted; this is
    the largest |<tau|(U x V)|omega>|**2 over local unitaries U, V.
    """
    t, w = pad_to_common(tau, omega)
    amp = float(np.sqrt(t.as_array() * w.as_array()).sum())
    return min(1.0, amp * amp)


def tensor(a: SchmidtSpectrum, b: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of the composite state: all pairwise products, sorted."""
    prod = np.outer(a.as_array(), b.as_array()).ravel()
    prod[::-1].sort()
    return SchmidtSpectrum(tuple(float(p) for p in prod))


def trace_distance_from_fidelity(f: float) -> float:
    """Trace distance between pure states with overlap f: 2*sqrt(1-f)."""
    if f < -NORMALIZATION_ATOL or f > 1.0 + NORMALIZATION_ATOL:
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
            return SchmidtSpectrum(tuple(probs))
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
