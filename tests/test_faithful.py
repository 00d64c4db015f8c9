import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PATHS, draw_spectrum, floored_spectrum, on_path, random_spectrum, spectra
from loccxform import (
    GridSpec,
    SchmidtSpectrum,
    aligned_fidelity,
    build_staircase,
    conclusive_probability,
    faithful,
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


# (0.6, 0.4) into (0.5999999, 0.4000001), both as binary floats: 2 sqrt(1 - F) for
# the normalised blocks (0.4, 0.6) and (0.4000001, 0.5999999), to 50 digits.  The
# decimal inputs give 2.0412414097934639e-7, the unnormalised blocks 2.0357951839e-7.
NEAR_PAIR = (SchmidtSpectrum((0.6, 0.4)), SchmidtSpectrum((0.5999999, 0.4000001)))
NEAR_PAIR_DISTANCE = 2.0412414093989143820262847368765573303388211203616e-7


@pytest.mark.parametrize("path", PATHS)
def test_a_target_near_the_source_reports_its_distance(path):
    # 1 - f is 1.04e-14 here: 2 sqrt(1 - f) of the rounded f reads 2.0213e-7,
    # 1% low, and f within 1e-12 of 1 once read as 1 and distance 0
    with on_path(path):
        report = optimal_fidelity(*NEAR_PAIR)
    assert not report.deterministic
    assert report.f_opt < 1.0
    assert report.trace_distance == pytest.approx(NEAR_PAIR_DISTANCE, rel=1e-9, abs=0.0)


@st.composite
def near_targets(draw) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """A spectrum and a target with relative noise of 1e-3 to 1e-12 on each coefficient."""
    alpha = draw(spectra())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** -draw(st.floats(3.0, 12.0))
    v = np.sort(alpha.probs * np.abs(1.0 + scale * rng.standard_normal(len(alpha))))[::-1]
    return alpha, SchmidtSpectrum(v / v.sum())


@pytest.mark.parametrize("path", PATHS)
@given(pair=near_targets())
# one block of masses 1 + 2 ulps and 1 + 4 ulps: the chain misses dominance by 2 ulps,
# and u - (s - t)**2 / 8 rounds to -2.2e-47, which w must not take
@example(pair=(SchmidtSpectrum((0.6000000000000004, 0.4)), SchmidtSpectrum((0.6000000000000008, 0.4))))
@settings(max_examples=150, deadline=None)
def test_only_a_dominating_chain_reads_fidelity_one_and_distance_zero(path, pair):
    with on_path(path):
        report = optimal_fidelity(*pair)
    verdict = majorizes(*pair)
    assert report.deterministic is verdict.deterministic
    if verdict.margin >= 0.0:
        assert (report.f_opt, report.trace_distance) == (1.0, 0.0)
    elif not verdict.deterministic:
        assert report.trace_distance > 0.0
    else:
        # the gap along the hull falls to -margin at worst and rises back, so 1 - F <= 2 |margin|
        n = max(map(len, pair))
        assert report.trace_distance <= 2 * math.sqrt(2 * (-verdict.margin + n * np.finfo(float).eps))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("x", [5e-11, 1e-10])
def test_a_pair_deterministic_within_the_tolerance_reports_its_distance(path, x):
    # (1, 0) into (1 - x, x) misses dominance by x <= PARTIAL_SUM_TOL: the verdict calls
    # it deterministic, and the normalised blocks (0, 1) and (x, 1 - x) are 2 sqrt(x) apart
    pair = (SchmidtSpectrum((1.0, 0.0)), SchmidtSpectrum((1.0 - x, x)))
    with on_path(path):
        report = optimal_fidelity(*pair)
        assert faithful.fidelity_verdict(*pair) == (report.f_opt, report.trace_distance, True)
    assert report.deterministic
    assert report.f_opt < 1.0
    assert report.trace_distance == pytest.approx(2 * math.sqrt(x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("path", PATHS)
def test_a_dominating_pair_reads_exactly_one_and_zero(path):
    # alpha's tail sums are beta's or more at every level; the one block's masses differ in
    # their last bit, where the blocks' formula reads a distance of 2.3e-24
    pair = (
        SchmidtSpectrum((0.6038825898509387, 0.3961174101490612)),
        SchmidtSpectrum((0.9552879034794901, 0.044712096520509725)),
    )

    def no_blocks(*args):
        raise AssertionError("fidelity_verdict built the blocks of a dominating pair")

    with on_path(path):
        report = optimal_fidelity(*pair)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(faithful, "_build", no_blocks)
            patch.setattr(faithful, "_short_blocks", no_blocks)
            assert faithful.fidelity_verdict(*pair) == (1.0, 0.0, True)
    assert majorizes(*pair).margin == 0.0
    assert (report.f_opt, report.trace_distance, report.deterministic) == (1.0, 0.0, True)
    assert report.staircase.source_mass[0] != report.staircase.target_mass[0]


def normalised_block_distance(report) -> float:
    """2 sqrt(1 - F) of the report's blocks, each side divided by its sum, to 50 digits."""
    with decimal.localcontext() as context:
        context.prec = 50
        source = [decimal.Decimal(x) for x in report.staircase.source_mass.tolist()]
        target = [decimal.Decimal(x) for x in report.staircase.target_mass.tolist()]
        s, t = sum(source), sum(target)
        amp = sum((x * y / (s * t)).sqrt() for x, y in zip(source, target))
        return float(2 * (1 - amp * amp).sqrt())


# The distance of a pair that is not deterministic is within this many times n eps,
# relatively, of its blocks' exact distance: the module docstring of
# loccxform.faithful bounds the error by a few eps plus |sqrt(s t) - 1|, s and t
# the blocks' sums, which lie within n eps of 1 for these spectra.
DISTANCE_ULPS_PER_LEVEL = 4


def assert_distance_is_the_blocks(report, n: int) -> None:
    if report.deterministic:
        return
    want = normalised_block_distance(report)
    assert abs(report.trace_distance - want) <= DISTANCE_ULPS_PER_LEVEL * n * np.finfo(float).eps * want


@pytest.mark.parametrize("path", PATHS)
@given(pair=near_targets())
# the target misses the source by about 1e-10 a level, and the blocks' sums differ by an
# ulp or so: without the (s - t)**2 / 8 term the distance is 1133 n eps off
@example(
    pair=(
        SchmidtSpectrum((0.28240635458742874, 0.2696888267088925, 0.24652612301025406, 0.20137869569342484)),
        SchmidtSpectrum((0.28240635457216606, 0.26968882655009574, 0.2465261230933734, 0.20137869578436468)),
    )
)
@settings(max_examples=100, deadline=None)
def test_distances_match_a_50_digit_evaluation_of_the_blocks(path, pair):
    with on_path(path):
        assert_distance_is_the_blocks(optimal_fidelity(*pair), max(map(len, pair)))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [1024, 4096])
def test_large_near_pairs_match_a_50_digit_evaluation_of_the_blocks(path, n):
    rng = np.random.default_rng(n + 1)
    for kind in ("dirichlet", "power", "subnormal_tail"):
        alpha = draw_spectrum(rng, n, kind)
        for scale in (1e-3, 1e-5, 1e-7):
            v = np.sort(alpha.probs * np.abs(1.0 + scale * rng.standard_normal(n)))[::-1]
            with on_path(path):
                report = optimal_fidelity(alpha, SchmidtSpectrum(v / v.sum()))
            assert not report.deterministic
            assert_distance_is_the_blocks(report, n)


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
