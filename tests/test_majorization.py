import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import KINDS, dominating_spectrum, draw_spectrum, random_spectrum, spectra
from loccxform import (
    SchmidtSpectrum,
    conclusive_probability,
    majorizes,
    tensor,
    weak_submajorizes,
)
from loccxform.faithful import tail_chain
from loccxform.spectra import PARTIAL_SUM_TOL, pad_pair, pad_to_common

BELL = SchmidtSpectrum((0.5, 0.5))
PRODUCT = SchmidtSpectrum((1.0, 0.0))


# ---------------------------------------------------------------------------
# pad_pair
# ---------------------------------------------------------------------------


def test_pad_pair_tails_past_the_shorter_spectrum_are_zero():
    pair = pad_pair(SchmidtSpectrum((0.5, 0.3, 0.2)), SchmidtSpectrum((0.25,) * 4))
    # one (2, n) float array, alpha's row first, whose rows unpack
    assert type(pair) is np.ndarray and pair.dtype == float and pair.shape == (2, 4)
    a, b = pair
    assert tuple(a) == (0.5, 0.3, 0.2, 0.0)
    assert tuple(b) == (0.25,) * 4
    # the chain bottom first: the origin, then levels 4..1
    t_beta, t_alpha = tail_chain(pair)
    assert tuple(t_alpha) == pytest.approx((0.0, 0.0, 0.2, 0.5, 1.0), abs=1e-12)
    assert tuple(t_beta) == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0), abs=1e-12)


def test_tail_chain_stops_at_the_targets_support():
    # levels past beta's support add no target mass: the chain skips level 4,
    # and its first level carries alpha's mass on levels 3 and 4
    pair = pad_pair(SchmidtSpectrum((0.25,) * 4), SchmidtSpectrum((0.5, 0.3, 0.2)))
    assert tuple(pair[1]) == (0.5, 0.3, 0.2, 0.0)
    t_beta, t_alpha = tail_chain(pair)
    assert tuple(t_beta) == pytest.approx((0.0, 0.2, 0.5, 1.0), abs=1e-12)
    assert tuple(t_alpha) == pytest.approx((0.0, 0.5, 0.75, 1.0), abs=1e-12)


@pytest.mark.parametrize("size", [1, 3])
def test_tail_chain_of_an_all_zero_target_raises(size):
    with pytest.raises(ValueError, match="^target spectrum is all zero$"):
        tail_chain(np.array((np.eye(size)[0], np.zeros(size))))


def two_cumsum_chain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tail_chain`` as it was taken with one cumsum per row of the padded pair."""
    m = int(np.count_nonzero(b))
    points = np.zeros((2, m + 1))
    points[0, 1:] = b[::-1].cumsum()[len(b) - m :]
    points[1, 1:] = a[::-1].cumsum()[len(a) - m :]
    return points


def assert_one_cumsum_is_two(alpha: SchmidtSpectrum, beta: SchmidtSpectrum, u: float) -> None:
    """The one-cumsum chain equals the two-cumsum one bit for bit, and
    ``weak_submajorizes`` is the all-levels test on the latter at p = 0, 1,
    the conclusive probability and u."""
    chain = two_cumsum_chain(*pad_pair(alpha, beta))
    assert tail_chain(pad_pair(alpha, beta)).tobytes() == chain.tobytes()
    t_beta, t_alpha = chain
    for p in (0.0, 1.0, conclusive_probability(alpha, beta), u):
        assert weak_submajorizes(alpha, beta, p) is bool(np.all(t_alpha - p * t_beta >= -PARTIAL_SUM_TOL))


@given(alpha=spectra(), beta=spectra(), u=st.floats(0.0, 1.0))
@settings(max_examples=400, deadline=None)
def test_tail_chain_is_the_two_cumsum_chain_bitwise(alpha, beta, u):
    assert_one_cumsum_is_two(alpha, beta, u)


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("kind", KINDS)
def test_large_tail_chains_are_the_two_cumsum_chains_bitwise(n, kind):
    rng = np.random.default_rng(n + KINDS.index(kind))
    # unequal lengths both ways round, against a target of a random kind
    alpha = draw_spectrum(rng, n, kind)
    beta = draw_spectrum(rng, int(rng.integers(n // 2, n + 1)), str(rng.choice(KINDS)))
    assert_one_cumsum_is_two(alpha, beta, float(rng.uniform()))
    assert_one_cumsum_is_two(beta, alpha, float(rng.uniform()))


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


def prefix_gaps(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> np.ndarray:
    """Target minus source partial sums of the padded pair, prefixes 1..n."""
    a, b = pad_pair(alpha, beta)
    return np.cumsum(b) - np.cumsum(a)


def prefix_verdict(gaps: np.ndarray) -> tuple[bool, int | None, float]:
    """The deterministic verdict from prefix sums, as ``majorizes`` took it before it read the tail chain."""
    margin = float(gaps.min())
    deterministic = margin >= -PARTIAL_SUM_TOL
    failing = None if deterministic else int(np.argmax(gaps < -PARTIAL_SUM_TOL)) + 1
    return deterministic, failing, margin


@st.composite
def majorizes_pairs(draw) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """A spectrum and an independent target (lengths differ, zeros pad), or the
    spectrum with relative noise of 1e-6 to 1e-12 and trailing zeros."""
    alpha = draw(spectra())
    if draw(st.booleans()):
        return alpha, draw(spectra())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** -draw(st.floats(6.0, 12.0))
    v = np.sort(alpha.probs * np.abs(1.0 + scale * rng.standard_normal(len(alpha))))[::-1]
    return alpha, SchmidtSpectrum(np.concatenate((v / v.sum(), np.zeros(draw(st.integers(0, 3))))))


@given(pair=majorizes_pairs())
@settings(max_examples=400, deadline=None)
def test_the_chain_verdict_is_the_prefix_sum_verdict(pair):
    gaps = prefix_gaps(*pair)
    # a gap within rounding of the tolerance may fall on either side of it
    assume(not np.any(np.abs(gaps + PARTIAL_SUM_TOL) <= 1e-14))
    deterministic, failing, margin = prefix_verdict(gaps)
    got = majorizes(*pair)
    assert (got.deterministic, got.failing_index) == (deterministic, failing)
    assert got.margin == pytest.approx(margin, rel=0.0, abs=1e-14)
    assert weak_submajorizes(*pair, 1.0) is got.deterministic


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
