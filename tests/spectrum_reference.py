"""Reference for the ``SchmidtSpectrum`` constructor, kept to test its fast path.

``reference_spectrum`` is the constructor's validation as it stood before the
certified-sum check: clamp entries in [-NORMALIZATION_ATOL, 0) to 0, sort
with a stable sort, take the exact sum with ``math.fsum`` and renormalize by
it when it misses 1 by more than ``NORMALIZATION_ATOL``.  It raises the same
errors with the same messages, and shares no code with ``loccxform.spectra``.
A sum past the float range is reported to six digits from its exact value.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from loccxform.spectra import NORMALIZATION_ACCEPT, NORMALIZATION_ATOL


def reference_spectrum(probs: object) -> tuple[np.ndarray, bool]:
    """The validated coefficients and the ``resorted`` flag for ``probs``."""
    vals = np.array(probs, dtype=float)
    if vals.ndim != 1 or not vals.size:
        raise ValueError(f"spectrum must be a non-empty vector, got shape {vals.shape}")
    low = vals[vals.argmin()]
    if low < 0.0:
        if low < -NORMALIZATION_ATOL:
            raise ValueError(f"negative probability in spectrum: {low}")
        vals[vals < 0.0] = 0.0
    resorted = bool(np.count_nonzero(vals[:-1] < vals[1:]))
    if resorted:
        vals[::-1].sort(kind="stable")
    try:
        total = math.fsum(vals.tolist())
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        if all(map(math.isfinite, vals.tolist())):
            exact = sum(map(Fraction, vals.tolist()))
            with localcontext() as ctx:
                ctx.prec = 6
                size = (Decimal(exact.numerator) / exact.denominator).normalize()
            raise ValueError(f"spectrum not normalized: sum = {size:g}")
        raise ValueError(f"spectrum entries must be finite: sum = {total!r}")
    if abs(total - 1.0) > NORMALIZATION_ACCEPT:
        raise ValueError(f"spectrum not normalized: sum = {total!r}")
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        vals /= total
    return vals, resorted
