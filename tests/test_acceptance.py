"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import floored_spectrum, random_spectrum, random_state
from loccxform import (
    GridSpec,
    SchmidtSpectrum,
    aligned_fidelity,
    catalysis_check,
    concentration_fidelity,
    conclusive_probability,
    dilution_fidelity,
    grid_max_fidelity,
    majorizes,
    nonlocal_trace_distance,
    optimal_fidelity,
    robustness_interval,
    sample_feasible_ensembles,
    sample_unitary_overlap,
    schmidt_spectrum,
    teleportation_fidelity,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_worked_example_and_runtime():
    alpha = SchmidtSpectrum((0.8, 0.2))
    bell = SchmidtSpectrum((0.5, 0.5))
    rep = optimal_fidelity(alpha, bell)

    a, b = math.sqrt(0.8), math.sqrt(0.2)
    ok = abs(rep.f_opt - (0.5 + a * b)) <= 1e-12
    ok &= abs(rep.f_opt - 0.9) <= 1e-12
    ok &= max(abs(x - y) for x, y in zip(rep.xi.probs, alpha.probs)) <= 1e-12
    ok &= abs(rep.conclusive_p - 2 * 0.2) <= 1e-12

    # the conclusive strategy leaves a product state on failure
    average = rep.conclusive_p * 1.0 + (1 - rep.conclusive_p) * aligned_fidelity(
        SchmidtSpectrum((1.0, 0.0)), bell
    )
    ok &= abs(average - (0.5 + b * b)) <= 1e-12
    ok &= abs(average - 0.7) <= 1e-12
    ok &= average < rep.f_opt - 0.1

    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        optimal_fidelity(alpha, bell)
        best = min(best, time.perf_counter() - t0)
    ok &= best < 1e-3

    report(1, "worked example: f_opt=0.9, xi=source, p=0.4, avg 0.7 < 0.9", ok,
           f"fastest eval {best * 1e3:.3f} ms")


def test_criterion_02_grid_oracle_equivalence():
    rng = np.random.default_rng(2026_02)
    step = 0.01
    worst_gap, min_slack = 0.0, math.inf
    for _ in range(200):
        n = int(rng.integers(2, 5))
        alpha, beta = floored_spectrum(rng, n), floored_spectrum(rng, n)
        theorem = optimal_fidelity(alpha, beta).f_opt
        oracle = grid_max_fidelity(alpha, beta, GridSpec(n, step))
        worst_gap = max(worst_gap, theorem - oracle)
        min_slack = min(min_slack, theorem - oracle)
    ok = min_slack >= -1e-12 and worst_gap <= 2e-2
    report(2, "200 grid searches never beat the construction and land within 2e-2",
           ok, f"worst gap {worst_gap:.2e}, min slack {min_slack:.2e}")


def test_criterion_03_unitary_overlap_bound():
    rng = np.random.default_rng(2026_03)
    worst_excess = -math.inf
    worst_defect = math.inf
    for _ in range(20):
        n = int(rng.integers(2, 4))
        tau, omega = random_state(rng, n), random_state(rng, n)
        bound = aligned_fidelity(schmidt_spectrum(tau), schmidt_spectrum(omega))
        sampled = sample_unitary_overlap(tau, omega, trials=10_000,
                                         seed=int(rng.integers(2**31)))
        worst_excess = max(worst_excess, sampled - bound)
        worst_defect = min(worst_defect, sampled - bound)
    ok = worst_excess <= 1e-9 and worst_defect >= -1e-10
    report(3, "2e5 sampled local-unitary overlaps respect and attain the aligned bound",
           ok, f"max excess {worst_excess:.2e}, min defect {worst_defect:.2e}")


def test_criterion_04_ensemble_dominance():
    rng = np.random.default_rng(2026_04)
    worst = -math.inf
    for _ in range(50):
        n = int(rng.integers(2, 5))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        f_opt = optimal_fidelity(alpha, beta).f_opt
        values = sample_feasible_ensembles(alpha, beta, count=1000,
                                           seed=int(rng.integers(2**31)))
        worst = max(worst, max(values) - f_opt)
    ok = worst <= 1e-10
    report(4, "5e4 feasible ensembles never average above the deterministic optimum",
           ok, f"worst excess {worst:.2e}")


def test_criterion_05_structural_invariants():
    rng = np.random.default_rng(2026_05)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        rep = optimal_fidelity(alpha, beta)
        gamma = rep.xi
        ok &= all(gamma.probs[i] >= gamma.probs[i + 1] for i in range(len(gamma) - 1))
        ok &= abs(math.fsum(gamma.probs) - 1.0) <= 1e-12
        ok &= majorizes(alpha, gamma).deterministic
        ok &= (rep.f_opt >= 1.0 - 1e-10) == majorizes(alpha, beta).deterministic
        ok &= abs(
            conclusive_probability(gamma, beta) - conclusive_probability(alpha, beta)
        ) <= 1e-10
        if not ok:
            break
    report(5, "1000 random pairs: xi sorted+normalized, dominated by source, "
              "f=1 iff convertible, conclusive probability preserved", ok)


def test_criterion_06_dilution_consistency():
    rng = np.random.default_rng(2026_06)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        beta = random_spectrum(rng, n)
        for m in range(1, n + 1):
            closed, xi = dilution_fidelity(m, beta)
            general = optimal_fidelity(SchmidtSpectrum.uniform(m), beta)
            worst = max(worst, abs(closed - general.f_opt))
            worst = max(
                worst,
                max(abs(x - y) for x, y in zip(xi.probs, general.xi.probs, strict=True)),
            )
    ok = worst <= 1e-12
    report(6, "dilution closed form equals the general construction for all m",
           ok, f"worst deviation {worst:.2e}")


def test_criterion_07_concentration_consistency():
    rng = np.random.default_rng(2026_07)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        alpha = random_spectrum(rng, n)
        f_max = concentration_fidelity(alpha)
        worst = max(
            worst, abs(f_max - optimal_fidelity(alpha, SchmidtSpectrum.uniform(n)).f_opt)
        )
        amp = math.fsum(math.sqrt(p) for p in alpha.probs)
        worst = max(worst, abs(teleportation_fidelity(alpha) - (amp * amp + 1) / (n + 1)))
    ok = worst <= 1e-12
    report(7, "concentration fidelity equals the general construction; "
              "teleportation fidelity matches its closed form", ok,
           f"worst deviation {worst:.2e}")


def test_criterion_08_catalysis_instance():
    alpha = SchmidtSpectrum((0.4, 0.4, 0.1, 0.1))
    beta = SchmidtSpectrum((0.5, 0.25, 0.25, 0.0))
    eta = SchmidtSpectrum((0.6, 0.4))

    # independent partial-sum check of the 8-entry product spectra
    def product_heads(s, t):
        products = sorted((x * y for x in s.probs for y in t.probs), reverse=True)
        return np.cumsum(products)

    bare_ok = bool(np.all(np.cumsum(alpha.probs) <= np.cumsum(beta.probs) + 1e-10))
    cat_heads_a = product_heads(alpha, eta)
    cat_heads_b = product_heads(beta, eta)
    cat_ok = bool(np.all(cat_heads_a <= cat_heads_b + 1e-10))

    rep = catalysis_check(alpha, beta, eta)
    ok = (not bare_ok) and cat_ok
    ok &= rep.convertible_bare == bare_ok
    ok &= rep.convertible_with_catalyst == cat_ok
    ok &= rep.delta_T > 0.0

    # the gain survives noise strictly below the threshold and is not
    # guaranteed at or above it
    for eps, survives in ((rep.delta_T / 2, True), (rep.delta_T * 1.5, False)):
        eps = min(eps, 2.0)
        noisy_upper = robustness_interval(
            SchmidtSpectrum(tuple(sorted((x * y for x in alpha.probs for y in eta.probs), reverse=True))),
            SchmidtSpectrum(tuple(sorted((x * y for x in beta.probs for y in eta.probs), reverse=True))),
            eps,
        )[1]
        ok &= (noisy_upper < rep.trace_distance_bare) == survives

    report(8, "catalysis: bare conversion fails, catalyzed succeeds, "
              "noise below delta_T preserves the gain", ok,
           f"delta_T {rep.delta_T:.4f}")


def test_criterion_09_nonlocal_metric():
    rng = np.random.default_rng(2026_09)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        x, y, z = (random_spectrum(rng, n) for _ in range(3))
        d_xy, d_yx = nonlocal_trace_distance(x, y), nonlocal_trace_distance(y, x)
        ok &= abs(d_xy - d_yx) <= 1e-12
        ok &= nonlocal_trace_distance(x, SchmidtSpectrum(x.probs)) <= 1e-10
        if max(abs(a - b) for a, b in zip(x.probs, y.probs)) > 1e-8:
            ok &= d_xy > 1e-10
        ok &= nonlocal_trace_distance(x, z) <= d_xy + nonlocal_trace_distance(y, z) + 1e-9
        if not ok:
            break
    report(9, "non-local distance: symmetric, zero iff equal, triangle inequality", ok)


def test_criterion_10_asymptotic_rates_out_of_scope():
    # Asymptotic many-copy conversion rates are not desk-scale reproducible
    # and are out of scope; the finite counterparts are what this package
    # computes, re-checked here on one instance of each.
    beta = SchmidtSpectrum((0.6, 0.3, 0.1))
    closed, _ = dilution_fidelity(2, beta)
    ok = abs(closed - optimal_fidelity(SchmidtSpectrum.uniform(2), beta).f_opt) <= 1e-12
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    ok &= abs(
        concentration_fidelity(alpha)
        - optimal_fidelity(alpha, SchmidtSpectrum.uniform(3)).f_opt
    ) <= 1e-12
    report(10, "asymptotic rates out of scope; finite-size counterparts covered "
               "by criteria 6-7", ok)
