import warnings

import numpy as np
import pytest

from conftest import dominating_spectrum, random_spectrum
from loccxform import (
    SchmidtSpectrum,
    conclusive_probability,
    majorizes,
    tensor,
    weak_submajorizes,
)
from loccxform.spectra import pad_pair, pad_to_common

BELL = SchmidtSpectrum((0.5, 0.5))
PRODUCT = SchmidtSpectrum((1.0, 0.0))


# ---------------------------------------------------------------------------
# pad_pair
# ---------------------------------------------------------------------------


def test_pad_pair_tails_past_the_shorter_spectrum_are_zero():
    pair = pad_pair(SchmidtSpectrum((0.5, 0.3, 0.2)), SchmidtSpectrum((0.25,) * 4))
    assert tuple(pair.a) == (0.5, 0.3, 0.2, 0.0)
    assert tuple(pair.ta) == pytest.approx((1.0, 0.5, 0.2, 0.0), abs=1e-12)
    assert tuple(pair.tb) == pytest.approx((1.0, 0.75, 0.5, 0.25), abs=1e-12)


# ---------------------------------------------------------------------------
# majorizes
# ---------------------------------------------------------------------------


def test_bell_converts_to_anything():
    verdict = majorizes(BELL, PRODUCT)
    assert verdict.deterministic
    assert verdict.failing_index is None
    assert verdict.margin == pytest.approx(0.0, abs=1e-12)


def test_entanglement_cannot_be_created():
    verdict = majorizes(PRODUCT, BELL)
    assert not verdict.deterministic
    assert verdict.failing_index == 1
    assert verdict.margin == pytest.approx(-0.5, abs=1e-12)


def test_partial_sum_failure_located():
    # partial sums: source (0.4, 0.8, 0.9, 1.0) vs target (0.5, 0.75, 1.0, 1.0);
    # the first prefix where the source overshoots is the second one
    alpha = SchmidtSpectrum((0.4, 0.4, 0.1, 0.1))
    beta = SchmidtSpectrum((0.5, 0.25, 0.25, 0.0))
    verdict = majorizes(alpha, beta)
    assert not verdict.deterministic
    assert verdict.failing_index == 2
    assert verdict.margin == pytest.approx(-0.05, abs=1e-12)


def test_majorizes_pads_unequal_lengths():
    assert majorizes(BELL, SchmidtSpectrum((1.0,))).deterministic
    assert not majorizes(SchmidtSpectrum((1.0,)), BELL).deterministic


def test_majorizes_tolerates_boundary_equality():
    s = SchmidtSpectrum((0.6, 0.4))
    assert majorizes(s, s).deterministic


# ---------------------------------------------------------------------------
# weak_submajorizes
# ---------------------------------------------------------------------------


def test_weak_submajorization_at_full_weight_is_majorization():
    rng = np.random.default_rng(5)
    for _ in range(50):
        alpha = random_spectrum(rng, int(rng.integers(2, 5)))
        beta = dominating_spectrum(rng, alpha)
        assert majorizes(alpha, beta).deterministic
        assert weak_submajorizes(alpha, beta, 1.0)


def test_weak_submajorization_product_to_bell_at_half():
    assert not weak_submajorizes(PRODUCT, BELL, 0.5)


def test_weak_submajorization_threshold():
    # tail ratios are (1, 0.9, 2); the predicate flips at the smallest one
    alpha = SchmidtSpectrum((0.55, 0.25, 0.2))
    beta = SchmidtSpectrum((0.5, 0.4, 0.1))
    assert weak_submajorizes(alpha, beta, 0.9)
    assert not weak_submajorizes(alpha, beta, 0.91)
    assert weak_submajorizes(alpha, beta, 0.5)


def test_weak_submajorization_rejects_bad_probability():
    with pytest.raises(ValueError, match="range"):
        weak_submajorizes(BELL, BELL, 1.5)


def test_weak_submajorization_supremum_matches_conclusive_probability():
    # independent oracle: bisect the tolerance-free tail-dominance predicate
    def strict_holds(ta, tb, p):
        return bool(np.all(ta >= p * tb))

    def sup_p(alpha, beta):
        a, b = pad_to_common(alpha, beta)
        ta = np.cumsum(a.as_array()[::-1])[::-1]
        tb = np.cumsum(b.as_array()[::-1])[::-1]
        if strict_holds(ta, tb, 1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if strict_holds(ta, tb, mid):
                lo = mid
            else:
                hi = mid
        return lo

    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        assert sup_p(alpha, beta) == pytest.approx(
            conclusive_probability(alpha, beta), abs=1e-9
        )
        # the production predicate agrees away from the threshold
        p = conclusive_probability(alpha, beta)
        if p > 1e-3:
            assert weak_submajorizes(alpha, beta, p - 1e-3)
        if p < 1.0 - 1e-3:
            assert not weak_submajorizes(alpha, beta, p + 1e-3)


# ---------------------------------------------------------------------------
# conclusive_probability
# ---------------------------------------------------------------------------


def test_identity_conversion_is_certain():
    s = SchmidtSpectrum((0.7, 0.2, 0.1))
    assert conclusive_probability(s, s) == pytest.approx(1.0, abs=1e-12)


def test_conclusive_probability_two_b_squared():
    # converting (a^2, b^2) to the balanced state succeeds with probability 2 b^2
    p = conclusive_probability(SchmidtSpectrum((0.8, 0.2)), BELL)
    assert p == pytest.approx(0.4, abs=1e-14)


def test_conclusive_probability_tail_ratios():
    # tail ratios are (1, 0.45/0.5, 0.2/0.1); the minimum is 0.9
    alpha = SchmidtSpectrum((0.55, 0.25, 0.2))
    beta = SchmidtSpectrum((0.5, 0.4, 0.1))
    assert conclusive_probability(alpha, beta) == pytest.approx(0.9, abs=1e-14)


def test_conclusive_probability_zero_when_target_has_more_support():
    assert conclusive_probability(PRODUCT, BELL) == 0.0
    assert conclusive_probability(
        SchmidtSpectrum((0.5, 0.5, 0.0)), SchmidtSpectrum((0.6, 0.3, 0.1))
    ) == 0.0


def test_conclusive_probability_subnormal_target_tail_is_silent():
    # alpha's last tail over beta's subnormal one overflows to inf, which
    # never wins the minimum; numpy must not warn about it
    alpha = SchmidtSpectrum((0.5, 0.4, 0.1))
    beta = SchmidtSpectrum((0.9, 0.1, 5e-324))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conclusive_probability(alpha, beta) == 1.0


def test_certainty_iff_deterministic():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        certain = conclusive_probability(alpha, beta) >= 1.0 - 1e-10
        assert certain == majorizes(alpha, beta).deterministic


def test_probability_survives_shared_bell_pair():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        base = conclusive_probability(alpha, beta)
        lifted = conclusive_probability(tensor(alpha, BELL), tensor(beta, BELL))
        assert lifted >= base - 1e-10
