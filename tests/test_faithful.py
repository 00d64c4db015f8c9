import dataclasses
import math

import numpy as np
import pytest

from conftest import floored_spectrum, random_spectrum
from loccxform import (
    GridSpec,
    SchmidtSpectrum,
    aligned_fidelity,
    build_staircase,
    conclusive_probability,
    grid_max_fidelity,
    majorizes,
    optimal_fidelity,
    optimal_state,
    sample_feasible_ensembles,
)

BELL = SchmidtSpectrum((0.5, 0.5))


# ---------------------------------------------------------------------------
# build_staircase
# ---------------------------------------------------------------------------


def test_staircase_identity_pair_is_single_segment():
    stairs = build_staircase(BELL, BELL)
    assert len(stairs.segments) == 1
    seg = stairs.segments[0]
    assert seg.start == 1
    assert seg.ratio == pytest.approx(1.0, abs=1e-12)
    assert seg.source_mass == pytest.approx(1.0, abs=1e-12)
    assert seg.target_mass == pytest.approx(1.0, abs=1e-12)


def test_staircase_dilution_regime():
    # tail ratios (1, 1.25, 0): the zero at the bottom starts a ratio-0 block
    stairs = build_staircase(
        SchmidtSpectrum((0.5, 0.5, 0.0)), SchmidtSpectrum((0.6, 0.3, 0.1))
    )
    starts = [s.start for s in stairs.segments]
    ratios = [s.ratio for s in stairs.segments]
    assert starts == [3, 1]
    assert ratios[0] == 0.0
    assert ratios[1] == pytest.approx(1 / 0.9, abs=1e-14)
    assert stairs.segments[0].source_mass == pytest.approx(0.0, abs=1e-14)
    assert stairs.segments[0].target_mass == pytest.approx(0.1, abs=1e-14)
    assert stairs.segments[1].source_mass == pytest.approx(1.0, abs=1e-14)
    assert stairs.segments[1].target_mass == pytest.approx(0.9, abs=1e-14)


def test_staircase_two_blocks():
    # tail ratios (1, 0.9, 2) pick level 2 first, then level 1
    stairs = build_staircase(
        SchmidtSpectrum((0.55, 0.25, 0.2)), SchmidtSpectrum((0.5, 0.4, 0.1))
    )
    assert [(s.start, s.ratio, s.source_mass, s.target_mass) for s in stairs.segments] == [
        (2, pytest.approx(0.9, abs=1e-14), pytest.approx(0.45, abs=1e-14), pytest.approx(0.5, abs=1e-14)),
        (1, pytest.approx(1.1, abs=1e-14), pytest.approx(0.55, abs=1e-14), pytest.approx(0.5, abs=1e-14)),
    ]


def test_staircase_smallest_minimizer_wins_ties():
    # both levels tie at ratio 1 for identical spectra; level 1 must win
    s = SchmidtSpectrum((0.6, 0.4))
    stairs = build_staircase(s, s)
    assert [seg.start for seg in stairs.segments] == [1]


def test_staircase_structure_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        stairs = build_staircase(alpha, beta)
        starts = [s.start for s in stairs.segments]
        ratios = [s.ratio for s in stairs.segments]
        assert starts[-1] == 1
        assert all(a > b for a, b in zip(starts, starts[1:]))
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert all(s.target_mass > 0 for s in stairs.segments)
        assert all(s.source_mass >= 0 for s in stairs.segments)
        assert math.fsum(s.source_mass for s in stairs.segments) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(s.target_mass for s in stairs.segments) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(s.ratio * s.target_mass for s in stairs.segments) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# optimal_state
# ---------------------------------------------------------------------------


def test_optimal_state_is_target_when_convertible():
    alpha = SchmidtSpectrum((0.4, 0.4, 0.2))
    beta = SchmidtSpectrum((0.7, 0.2, 0.1))
    assert majorizes(alpha, beta).deterministic
    assert optimal_state(alpha, beta).probs == pytest.approx(beta.probs, abs=1e-12)


def test_optimal_state_dilution_truncates_and_renormalizes():
    xi = optimal_state(SchmidtSpectrum((0.5, 0.5, 0.0)), SchmidtSpectrum((0.6, 0.3, 0.1)))
    assert xi.probs == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-14)


def test_optimal_state_two_block_rescaling():
    xi = optimal_state(SchmidtSpectrum((0.55, 0.25, 0.2)), SchmidtSpectrum((0.5, 0.4, 0.1)))
    assert xi.probs == pytest.approx((0.55, 0.36, 0.09), abs=1e-14)


# ---------------------------------------------------------------------------
# optimal_fidelity
# ---------------------------------------------------------------------------


def test_optimal_fidelity_one_when_convertible():
    report = optimal_fidelity(SchmidtSpectrum((0.4, 0.4, 0.2)), SchmidtSpectrum((0.7, 0.2, 0.1)))
    assert report.f_opt == 1.0
    assert report.trace_distance == 0.0
    assert report.deterministic


def test_optimal_fidelity_do_nothing_case():
    report = optimal_fidelity(SchmidtSpectrum((0.8, 0.2)), BELL)
    assert report.f_opt == pytest.approx(0.9, abs=1e-14)
    assert report.xi.probs == pytest.approx((0.8, 0.2), abs=1e-14)
    assert report.conclusive_p == pytest.approx(0.4, abs=1e-14)
    assert not report.deterministic


def test_optimal_fidelity_matches_block_formula_and_grid():
    alpha = SchmidtSpectrum((0.55, 0.25, 0.2))
    beta = SchmidtSpectrum((0.5, 0.4, 0.1))
    report = optimal_fidelity(alpha, beta)
    expected = (math.sqrt(0.45 * 0.5) + math.sqrt(0.55 * 0.5)) ** 2
    assert report.f_opt == pytest.approx(expected, abs=1e-14)
    oracle = grid_max_fidelity(alpha, beta, GridSpec(3, 0.001))
    assert oracle <= report.f_opt + 1e-12
    assert report.f_opt - oracle <= 2e-3


def test_report_trace_distance_and_conclusive_fields():
    report = optimal_fidelity(SchmidtSpectrum((0.8, 0.2)), BELL)
    assert report.trace_distance == pytest.approx(2 * math.sqrt(1 - report.f_opt), abs=1e-14)
    assert report.conclusive_p == pytest.approx(conclusive_probability(SchmidtSpectrum((0.8, 0.2)), BELL))


def test_reports_compare_by_identity_and_their_answers_by_value():
    alpha, beta = SchmidtSpectrum((0.6, 0.3, 0.1)), SchmidtSpectrum((0.5, 0.5))
    first, second = optimal_fidelity(alpha, beta), optimal_fidelity(alpha, beta)
    assert first == first
    assert first != second
    assert dataclasses.replace(first) != first
    assert (first.f_opt, first.xi, first.staircase.segments) == (
        second.f_opt, second.xi, second.staircase.segments
    )


def test_structural_invariants_on_random_pairs():
    rng = np.random.default_rng(211)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        report = optimal_fidelity(alpha, beta)
        gamma = report.xi
        assert all(gamma.probs[i] >= gamma.probs[i + 1] for i in range(len(gamma) - 1))
        assert math.fsum(gamma.probs) == pytest.approx(1.0, abs=1e-12)
        assert majorizes(alpha, gamma).deterministic
        assert aligned_fidelity(gamma, beta) == pytest.approx(report.f_opt, abs=1e-12)
        # reaching the best approximation costs no conclusive probability
        assert conclusive_probability(gamma, beta) == pytest.approx(
            conclusive_probability(alpha, beta), abs=1e-10
        )
        # fidelity 1 exactly characterizes deterministic convertibility
        assert (report.f_opt >= 1.0 - 1e-10) == report.deterministic
        assert report.deterministic == majorizes(alpha, beta).deterministic
        # a conclusive try yields the target with probability p and junk otherwise
        assert report.f_opt >= report.conclusive_p - 1e-12


def test_concentration_fixed_point():
    # against a balanced target the best strategy changes nothing
    rng = np.random.default_rng(307)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        alpha = random_spectrum(rng, n)
        report = optimal_fidelity(alpha, SchmidtSpectrum.uniform(n))
        assert report.xi.probs == pytest.approx(alpha.probs, abs=1e-12)
        amp = math.fsum(math.sqrt(p) for p in alpha.probs)
        assert report.f_opt == pytest.approx(amp * amp / n, abs=1e-12)


def test_no_feasible_ensemble_beats_the_optimum():
    rng = np.random.default_rng(401)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        f_opt = optimal_fidelity(alpha, beta).f_opt
        values = sample_feasible_ensembles(alpha, beta, 100, seed=int(rng.integers(2**31)))
        assert max(values) <= f_opt + 1e-10


def test_unequal_length_inputs_are_padded():
    report = optimal_fidelity(SchmidtSpectrum((1.0,)), SchmidtSpectrum((0.6, 0.3, 0.1)))
    assert report.f_opt == pytest.approx(0.6, abs=1e-12)
    assert report.xi.probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_floored_random_pairs_also_hold():
    rng = np.random.default_rng(997)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        alpha, beta = floored_spectrum(rng, n), floored_spectrum(rng, n)
        report = optimal_fidelity(alpha, beta)
        assert 0.0 <= report.f_opt <= 1.0
        assert majorizes(alpha, report.xi).deterministic
