"""Derived quantities: concentration, teleportation, dilution, catalysis,
noise-robustness bounds, and the metric induced by two-way conversion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .faithful import optimal_fidelity
from .spectra import SchmidtSpectrum, tensor, trace_distance_from_fidelity


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


def _resolve_dimension(alpha: SchmidtSpectrum, n: int | None) -> int:
    if n is None:
        n = len(alpha)
    if n < alpha.nonzero_count:
        raise ValueError(
            f"dimension {n} below the {alpha.nonzero_count} nonzero coefficients"
        )
    return n


def concentration_fidelity(alpha: SchmidtSpectrum, n: int | None = None) -> float:
    """Best overlap with the maximally entangled n-state: (sum sqrt(a_i))^2 / n.

    Doing nothing beyond basis alignment is optimal here, so this also equals
    ``optimal_fidelity(alpha, uniform_n).f_opt``.
    """
    n = _resolve_dimension(alpha, n)
    amp = math.fsum(np.sqrt(alpha.probs).tolist())
    return min(1.0, amp * amp / n)


def robustness_of_entanglement(alpha: SchmidtSpectrum, n: int | None = None) -> float:
    """Minimal separable noise washing out the correlations: n*F_max - 1."""
    n = _resolve_dimension(alpha, n)
    return max(0.0, n * concentration_fidelity(alpha, n) - 1.0)


def teleportation_fidelity(alpha: SchmidtSpectrum, n: int | None = None) -> float:
    """Best average fidelity teleporting an unknown n-level state through alpha.

    (n*F_max + 1) / (n + 1), i.e. ((sum sqrt(a_i))^2 + 1) / (n + 1).
    """
    n = _resolve_dimension(alpha, n)
    return (n * concentration_fidelity(alpha, n) + 1.0) / (n + 1.0)


def dilution_fidelity(m: int, beta: SchmidtSpectrum) -> tuple[float, SchmidtSpectrum]:
    """Best approximation of beta starting from a maximally entangled m-state.

    The fidelity is the weight of beta's m largest coefficients, and the
    reached state is beta truncated to those coefficients and renormalized.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
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
    bare = optimal_fidelity(alpha, beta)
    catalyzed = optimal_fidelity(tensor(alpha, eta), tensor(beta, eta))
    delta = bare.trace_distance - catalyzed.trace_distance
    return CatalysisReport(
        convertible_bare=bare.deterministic,
        convertible_with_catalyst=catalyzed.deterministic,
        delta_T=delta,
        trace_distance_bare=bare.trace_distance,
        trace_distance_catalyzed=catalyzed.trace_distance,
    )


def robustness_interval(
    alpha: SchmidtSpectrum, beta: SchmidtSpectrum, epsilon: float
) -> tuple[float, float]:
    """Bounds (lower, upper) on the trace distance to beta reachable from a
    state epsilon-close to alpha.

    epsilon is the trace distance between the corrupted input and alpha; the
    reachable distance can move by at most that much in either direction.
    """
    if not (0.0 <= epsilon <= 2.0):
        raise ValueError(f"trace distance out of range [0, 2]: {epsilon!r}")
    t_opt = optimal_fidelity(alpha, beta).trace_distance
    return max(0.0, t_opt - epsilon), min(2.0, t_opt + epsilon)


def nonlocal_fidelity(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Similarity of two states' correlations: the worse of the two directed
    optimal conversion fidelities."""
    return min(optimal_fidelity(a, b).f_opt, optimal_fidelity(b, a).f_opt)


def nonlocal_trace_distance(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Metric induced by the non-local fidelity: 2*sqrt(1 - F_nl).

    Symmetric, zero exactly for equal spectra, and obeys the triangle
    inequality, once states with equal Schmidt coefficients are identified.
    """
    return trace_distance_from_fidelity(nonlocal_fidelity(a, b))
