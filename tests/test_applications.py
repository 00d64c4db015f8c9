import math

import numpy as np
import pytest

from conftest import dominating_spectrum, random_spectrum
from loccxform import (
    SchmidtSpectrum,
    catalysis_check,
    concentration_fidelity,
    dilution_fidelity,
    majorizes,
    nonlocal_fidelity,
    nonlocal_trace_distance,
    optimal_fidelity,
    robustness_interval,
    robustness_of_entanglement,
    teleportation_fidelity,
)

BELL = SchmidtSpectrum((0.5, 0.5))


# ---------------------------------------------------------------------------
# Concentration / robustness / teleportation
# ---------------------------------------------------------------------------


def test_concentration_of_uniform_is_one():
    assert concentration_fidelity(SchmidtSpectrum.uniform(4)) == pytest.approx(1.0, abs=1e-12)


def test_concentration_of_product_state():
    assert concentration_fidelity(SchmidtSpectrum((1.0, 0.0))) == pytest.approx(0.5, abs=1e-14)


def test_concentration_example_value():
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    amp = math.fsum(math.sqrt(p) for p in alpha.probs)
    expected = amp * amp / 3
    assert concentration_fidelity(alpha) == pytest.approx(expected, abs=1e-14)
    assert concentration_fidelity(alpha) == pytest.approx(0.96565, abs=1e-4)
    assert concentration_fidelity(alpha) == pytest.approx(
        optimal_fidelity(alpha, SchmidtSpectrum.uniform(3)).f_opt, abs=1e-12
    )


def test_concentration_explicit_dimension():
    alpha = SchmidtSpectrum((0.7, 0.3))
    padded = concentration_fidelity(alpha, n=4)
    assert padded == pytest.approx(
        optimal_fidelity(alpha, SchmidtSpectrum.uniform(4)).f_opt, abs=1e-12
    )
    with pytest.raises(ValueError, match="dimension"):
        concentration_fidelity(SchmidtSpectrum((0.5, 0.3, 0.2)), n=2)


def test_robustness_values():
    assert robustness_of_entanglement(SchmidtSpectrum((1.0, 0.0))) == pytest.approx(0.0, abs=1e-12)
    for n in (2, 3, 5):
        assert robustness_of_entanglement(SchmidtSpectrum.uniform(n)) == pytest.approx(n - 1, abs=1e-12)
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    assert robustness_of_entanglement(alpha) == pytest.approx(
        3 * concentration_fidelity(alpha) - 1, abs=1e-14
    )


def test_concentration_fidelity_never_increases_under_conversion():
    # an entanglement monotone cannot grow along an allowed conversion
    rng = np.random.default_rng(31)
    for _ in range(100):
        alpha = random_spectrum(rng, int(rng.integers(2, 6)))
        beta = dominating_spectrum(rng, alpha)
        assert majorizes(alpha, beta).deterministic
        assert concentration_fidelity(alpha) >= concentration_fidelity(beta) - 1e-10


def test_teleportation_values():
    assert teleportation_fidelity(SchmidtSpectrum.uniform(3)) == pytest.approx(1.0, abs=1e-12)
    assert teleportation_fidelity(SchmidtSpectrum((1.0, 0.0))) == pytest.approx(2 / 3, abs=1e-14)
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    amp = math.fsum(math.sqrt(p) for p in alpha.probs)
    assert teleportation_fidelity(alpha) == pytest.approx((amp * amp + 1) / 4, abs=1e-14)
    assert teleportation_fidelity(alpha) == pytest.approx(0.97424, abs=1e-4)


# ---------------------------------------------------------------------------
# Dilution
# ---------------------------------------------------------------------------


def test_dilution_exact_when_source_is_large_enough():
    beta = SchmidtSpectrum((0.6, 0.3, 0.1))
    fidelity, xi = dilution_fidelity(3, beta)
    assert fidelity == 1.0
    assert xi.probs.tolist() == beta.probs.tolist()
    fidelity, xi = dilution_fidelity(7, beta)
    assert fidelity == 1.0


def test_dilution_two_into_three():
    fidelity, xi = dilution_fidelity(2, SchmidtSpectrum((0.6, 0.3, 0.1)))
    assert fidelity == pytest.approx(0.9, abs=1e-14)
    assert xi.probs == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-14)


def test_dilution_single_term():
    beta = SchmidtSpectrum((0.6, 0.3, 0.1))
    fidelity, xi = dilution_fidelity(1, beta)
    assert fidelity == pytest.approx(0.6, abs=1e-14)
    assert xi.probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)


def test_dilution_rejects_nonpositive_m():
    with pytest.raises(ValueError, match="positive"):
        dilution_fidelity(0, BELL)


def test_dilution_matches_general_construction():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        beta = random_spectrum(rng, n)
        for m in range(1, n + 1):
            closed, xi = dilution_fidelity(m, beta)
            general = optimal_fidelity(SchmidtSpectrum.uniform(m), beta)
            assert closed == pytest.approx(general.f_opt, abs=1e-12)
            assert xi.probs == pytest.approx(general.xi.probs, abs=1e-12)


# ---------------------------------------------------------------------------
# Catalysis
# ---------------------------------------------------------------------------


def test_trivial_catalyst_changes_nothing():
    alpha = SchmidtSpectrum((0.4, 0.4, 0.1, 0.1))
    beta = SchmidtSpectrum((0.5, 0.25, 0.25, 0.0))
    report = catalysis_check(alpha, beta, SchmidtSpectrum((1.0,)))
    assert report.convertible_bare == report.convertible_with_catalyst
    assert report.delta_T == pytest.approx(0.0, abs=1e-12)


def test_canonical_catalysis_instance():
    alpha = SchmidtSpectrum((0.4, 0.4, 0.1, 0.1))
    beta = SchmidtSpectrum((0.5, 0.25, 0.25, 0.0))
    eta = SchmidtSpectrum((0.6, 0.4))
    report = catalysis_check(alpha, beta, eta)
    assert not report.convertible_bare
    assert report.convertible_with_catalyst
    assert report.trace_distance_catalyzed == pytest.approx(0.0, abs=1e-12)
    assert report.delta_T == pytest.approx(report.trace_distance_bare, abs=1e-12)
    assert report.delta_T > 0.1


def test_nothing_to_catalyze_when_convertible():
    alpha, beta = BELL, SchmidtSpectrum((0.7, 0.3))
    report = catalysis_check(alpha, beta, SchmidtSpectrum((0.6, 0.4)))
    assert report.convertible_bare
    assert report.delta_T == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Robustness interval
# ---------------------------------------------------------------------------


def test_robustness_interval_degenerate():
    lower, upper = robustness_interval(SchmidtSpectrum((0.8, 0.2)), BELL, 0.0)
    t_opt = optimal_fidelity(SchmidtSpectrum((0.8, 0.2)), BELL).trace_distance
    assert lower == upper == pytest.approx(t_opt, abs=1e-14)


def test_robustness_interval_clamps_at_zero():
    lower, upper = robustness_interval(BELL, SchmidtSpectrum((0.7, 0.3)), 0.1)
    assert lower == 0.0
    assert upper == pytest.approx(0.1, abs=1e-14)


def test_robustness_interval_example():
    lower, upper = robustness_interval(SchmidtSpectrum((0.8, 0.2)), BELL, 0.2)
    t_opt = 2 * math.sqrt(0.1)
    assert lower == pytest.approx(t_opt - 0.2, abs=1e-12)
    assert upper == pytest.approx(t_opt + 0.2, abs=1e-12)


@pytest.mark.parametrize("eps", [-0.1, 2.1])
def test_robustness_interval_range_errors(eps):
    with pytest.raises(ValueError, match="range"):
        robustness_interval(BELL, BELL, eps)


# ---------------------------------------------------------------------------
# Non-local metric
# ---------------------------------------------------------------------------


def test_nonlocal_fidelity_identity():
    s = SchmidtSpectrum((0.6, 0.3, 0.1))
    assert nonlocal_fidelity(s, s) == 1.0
    assert nonlocal_trace_distance(s, s) == 0.0


def test_nonlocal_fidelity_product_vs_bell():
    f = nonlocal_fidelity(SchmidtSpectrum((1.0, 0.0)), BELL)
    assert f == pytest.approx(0.5, abs=1e-12)
    assert nonlocal_trace_distance(SchmidtSpectrum((1.0, 0.0)), BELL) == pytest.approx(
        2 * math.sqrt(0.5), abs=1e-12
    )


def test_nonlocal_fidelity_asymmetric_directions():
    # toward the balanced state the best fidelity is 0.9; downhill it is exact
    f = nonlocal_fidelity(SchmidtSpectrum((0.8, 0.2)), BELL)
    assert f == pytest.approx(0.9, abs=1e-12)
    assert optimal_fidelity(BELL, SchmidtSpectrum((0.8, 0.2))).f_opt == 1.0


def test_nonlocal_metric_properties():
    rng = np.random.default_rng(59)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        x, y, z = (random_spectrum(rng, n) for _ in range(3))
        d_xy = nonlocal_trace_distance(x, y)
        assert d_xy == pytest.approx(nonlocal_trace_distance(y, x), abs=1e-12)
        assert nonlocal_trace_distance(x, SchmidtSpectrum(x.probs)) <= 1e-10
        if max(abs(a - b) for a, b in zip(x.probs, y.probs)) > 1e-8:
            assert d_xy > 1e-10
        assert nonlocal_trace_distance(x, z) <= d_xy + nonlocal_trace_distance(y, z) + 1e-9
