"""Derived quantities: concentration, teleportation, dilution, catalysis,
noise-robustness bounds, and the metric induced by two-way conversion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# bench/run.py's trace counts the reports this module builds through the name optimal_fidelity
from .faithful import fidelity_verdict, optimal_fidelity  # noqa: F401
from .spectra import SchmidtSpectrum, positive_int, real_in_range, tensor


@dataclass(frozen=True)
class CatalysisReport:
    """Effect of a shared ancilla on the conversion between two states.

    ``delta_T`` is the trace-distance reduction the catalyst buys; it doubles
    as the noise threshold: input noise below it cannot destroy the gain.
    """

    convertible_bare: bool
    convertible_with_catalyst: bool
    delta_T: float
    trace_distance_bare: float
    trace_distance_catalyzed: float


def resolve_dimension(alpha: SchmidtSpectrum, n: int | None) -> int:
    """n, or alpha's length when n is None; it must hold alpha's support and be a finite float."""
    n = len(alpha) if n is None else positive_int(n, "dimension")
    if n < alpha.nonzero_count:
        raise ValueError(f"dimension {n} below the {alpha.nonzero_count} nonzero coefficients")
    try:
        float(n)
    except OverflowError:
        raise ValueError(f"dimension of {n.bit_length()} bits past the float range") from None
    return n


def checked_trace_distance(epsilon: float) -> float:
    """epsilon if it is a real number in [0, 2], else a ValueError: the package's one such check."""
    return real_in_range(epsilon, "trace distance", 0.0, 2.0, "[0, 2]")


def concentration_fidelity(alpha: SchmidtSpectrum, n: int | None = None) -> float:
    """Best overlap with the maximally entangled n-state: (sum sqrt(a_i))^2 / n.

    Doing nothing beyond basis alignment is optimal here, so this also equals
    ``optimal_fidelity(alpha, uniform_n).f_opt``.
    """
    n = resolve_dimension(alpha, n)
    amp = math.fsum(np.sqrt(alpha.probs).tolist())
    return min(1.0, amp * amp / n)


def robustness_of_entanglement(alpha: SchmidtSpectrum, n: int | None = None) -> float:
    """Minimal separable noise washing out the correlations: n*F_max - 1."""
    n = resolve_dimension(alpha, n)
    return max(0.0, n * concentration_fidelity(alpha, n) - 1.0)


def teleportation_fidelity(alpha: SchmidtSpectrum, n: int | None = None) -> float:
    """Best average fidelity teleporting an unknown n-level state through alpha.

    (n*F_max + 1) / (n + 1), i.e. ((sum sqrt(a_i))^2 + 1) / (n + 1).
    """
    n = resolve_dimension(alpha, n)
    return (n * concentration_fidelity(alpha, n) + 1.0) / (n + 1.0)


def dilution_fidelity(m: int, beta: SchmidtSpectrum) -> tuple[float, SchmidtSpectrum]:
    """Best approximation of beta starting from a maximally entangled m-state.

    The fidelity is the weight of beta's m largest coefficients, and the
    reached state is beta truncated to those coefficients and renormalized.
    """
    m = positive_int(m, "m")
    if m >= beta.nonzero_count:
        return 1.0, beta
    head = math.fsum(beta.probs[:m].tolist())
    xi = beta.probs / head
    xi[m:] = 0.0
    return head, SchmidtSpectrum(xi)


def catalysis_check(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, eta: SchmidtSpectrum
) -> CatalysisReport:
    """Does sharing the ancilla eta help convert alpha into beta?

    Compares the bare conversion with the one on the composite spectra
    alpha(x)eta -> beta(x)eta; the ancilla comes back intact either way.
    """
    _, t_bare, convertible_bare = fidelity_verdict(alpha, beta)
    _, t_catalyzed, convertible_catalyzed = fidelity_verdict(tensor(alpha, eta), tensor(beta, eta))
    return CatalysisReport(
        convertible_bare=convertible_bare,
        convertible_with_catalyst=convertible_catalyzed,
        delta_T=t_bare - t_catalyzed,
        trace_distance_bare=t_bare,
        trace_distance_catalyzed=t_catalyzed,
    )


def robustness_interval(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, epsilon: float
) -> tuple[float, float]:
    """Bounds (lower, upper) on the trace distance to beta reachable from a
    state epsilon-close to alpha.

    epsilon is the trace distance between the corrupted input and alpha; the
    reachable distance can move by at most that much in either direction.
    """
    return widen_trace_distance(fidelity_verdict(alpha, beta)[1], epsilon)


def widen_trace_distance(t_opt: float, epsilon: float) -> tuple[float, float]:
    """The trace distance t_opt widened by epsilon in both directions, within [0, 2]."""
    epsilon = checked_trace_distance(epsilon)
    return max(0.0, t_opt - epsilon), min(2.0, t_opt + epsilon)


def nonlocal_fidelity_and_distance(a: SchmidtSpectrum, b: SchmidtSpectrum) -> tuple[float, float]:
    """``nonlocal_fidelity`` and ``nonlocal_trace_distance`` from one conversion each way."""
    (f_ab, t_ab, _), (f_ba, t_ba, _) = fidelity_verdict(a, b), fidelity_verdict(b, a)
    return min(f_ab, f_ba), max(t_ab, t_ba)


def nonlocal_fidelity(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Similarity of two states' correlations: the worse of the two directed
    optimal conversion fidelities."""
    return nonlocal_fidelity_and_distance(a, b)[0]


def nonlocal_trace_distance(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Metric induced by the non-local fidelity: 2*sqrt(1 - F_nl), the larger directed distance.

    Symmetric, zero exactly for equal spectra, and obeys the triangle
    inequality, once states with equal Schmidt coefficients are identified.
    """
    return nonlocal_fidelity_and_distance(a, b)[1]
