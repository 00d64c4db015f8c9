"""Schmidt spectra of bipartite pure states: the state types, the input
checks, the package's tolerances and zero padding.

A state is represented either by its complex amplitude matrix in a fixed
product basis, or directly by its spectrum of squared Schmidt coefficients.
Everything downstream (convertibility, optimal conversion, metrics) consumes
spectra only; the tail sums those read are taken in ``faithful``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from decimal import Context, Decimal
from itertools import chain

import numpy as np

# Tolerances: the package's only ones, each a rounding allowance with what it guards and its size.
#
# Rounding drift allowed in a spectrum's sum, or in a grid's best above f_opt: above n * eps for any
# n up to 4500, and SchmidtSpectrum certifies a sum within it without math.fsum for n up to about 9000.
NORMALIZATION_ATOL = 1e-12
# Most drift of an input sum or norm from 1 that is renormalized, not rejected: six-digit input.
NORMALIZATION_ACCEPT = 1e-6
# Slack in partial-sum dominance: 1000 times the noise near 1e-13 that an SVD leaves in a spectrum.
PARTIAL_SUM_TOL = 1e-10
# Tail ratios closer than this tie, and ties go to the smaller level: a few thousand ulps of 1.
RATIO_TIE_TOL = 1e-12
# Slack between an oracle value and the closed form it checks; differences seen are near 1e-16.
ORACLE_TOL = 1e-10

# Unit roundoff of float64 (2**-53), and NORMALIZATION_ATOL less what rounding a test against it costs.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
_CERTIFIED_ATOL = NORMALIZATION_ATOL * (1.0 - 8 * _UNIT_ROUNDOFF)


def _exact_norm(values: np.ndarray, order: int) -> str:
    """The 1-norm or 2-norm of finite floats, to six digits, where float
    arithmetic overflows: only the messages for such inputs need it."""
    total = sum(Decimal(v) ** order for v in np.abs(values).ravel().tolist())
    return f"{Context(prec=6).normalize(total.sqrt() if order == 2 else total):g}"


def positive_int(value: object, name: str) -> int:
    """``value`` as a positive int; a bool, float or string is a ValueError.
    The package checks every count and dimension it takes here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer: {value!r}")
    return int(value)


def seed_int(value: object, name: str = "seed") -> int:
    """``value`` as a non-negative int for ``np.random.default_rng``, which would read
    True as 1 and None as fresh entropy; a bool, float, string or None is a ValueError.
    Every seed is checked here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer: {value!r}")
    return int(value)


def real_in_range(value: float, name: str, low: float, high: float, interval: str) -> float:
    """``value`` if it is a real number (a float skips the slow ABC check) in [low, high], else a
    ValueError naming ``interval``, for a bool or string too.  Every real parameter is checked here."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number: {value!r}")
    if not low <= value <= high:  # NaN fails too
        raise ValueError(f"{name} out of range {interval}: {value!r}")
    return value


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
            except OverflowError:  # a partial sum of finite entries left the float range
                total = math.inf
            # NaN fails every comparison above; the sum is where it shows.
            if not math.isfinite(total):
                if np.isfinite(vals).all():
                    raise ValueError(f"spectrum not normalized: sum = {_exact_norm(vals, 1)}")
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
        n = positive_int(n, "dimension")
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
    """Pure state of an m x n system as its amplitude matrix, any 2-D shape.

    The Frobenius norm must be 1 up to ``NORMALIZATION_ACCEPT``; small drift
    is renormalized away so the stored matrix has unit norm within 1e-12.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex)
        if arr.ndim != 2:
            raise ValueError(f"amplitude matrix must be 2-D, got shape {arr.shape}")
        with np.errstate(over="ignore"):  # finite entries can overflow the sum of squares
            norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm):
            if np.isfinite(arr).all():
                raise ValueError(f"state not normalized: |amplitudes| = {_exact_norm(arr.view(float), 2)}")
            raise ValueError(f"amplitudes must be finite: |amplitudes| = {norm!r}")
        if abs(norm - 1.0) > NORMALIZATION_ACCEPT:
            raise ValueError(f"state not normalized: |amplitudes| = {norm!r}")
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)


def schmidt_spectrum(state: BipartiteState) -> SchmidtSpectrum:
    """Spectrum of squared singular values of the amplitude matrix."""
    sv = np.linalg.svd(state.amplitudes, compute_uv=False)
    probs = sv.astype(float) ** 2
    probs /= probs.sum()
    return SchmidtSpectrum(probs)


def pad_pair(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, size: int = 0) -> np.ndarray:
    """Both spectra's coefficients zero-padded to the longer length, or to ``size`` if
    longer, as one new (2, n) array, alpha's row first: no new spectrum is built or checked."""
    pair = np.zeros((2, max(len(alpha), len(beta), size)))
    pair[0, : len(alpha)] = alpha.probs
    pair[1, : len(beta)] = beta.probs
    return pair


def pad_to_common(a: SchmidtSpectrum, b: SchmidtSpectrum) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """Zero-pad the shorter spectrum so both have the same length."""
    return tuple(map(SchmidtSpectrum, pad_pair(a, b)))


def aligned_fidelity(tau: SchmidtSpectrum, omega: SchmidtSpectrum) -> float:
    """Best overlap of two states under local basis changes.

    Equals (sum_i sqrt(tau_i * omega_i))**2 with both spectra sorted; this is
    the largest |<tau|(U x V)|omega>|**2 over local unitaries U, V.
    """
    a, b = pad_pair(tau, omega)
    amp = float(np.sqrt(a * b).sum())
    return min(1.0, amp * amp)


def tensor(a: SchmidtSpectrum, b: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of the composite state: all pairwise products, sorted."""
    prod = np.outer(a.probs, b.probs).ravel()
    prod[::-1].sort()
    return SchmidtSpectrum(prod)


# Types a JSON number decodes to; true and false decode to bool, not int.
_JSON_NUMBERS = {int, float}


def parse_state_dict(obj: object) -> SchmidtSpectrum | BipartiteState:
    """Decode the JSON state encoding.

    Accepts {"schmidt": [p1, p2, ...]} or {"amplitudes": [[[re, im], ...], ...]}
    (row-major m x n); exactly one of the two keys must be present.  Every
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
