"""The paper's consequences that need no oracle, on both paths and at every
size from 1 level to 4096: the optimal fidelity f is monotone in the source
and in the target, a source epsilon away moves the reachable trace distance
by at most epsilon, a catalyst never hurts, f is supermultiplicative under
tensor products, and xi dominates alpha with f = aligned(xi, beta).

Hypothesis draws pairs of up to 64 levels of every kind ``conftest.spectra``
makes, a few seeded pairs run at 1024 and 4096 levels.  Every bound on f holds
within ``ORACLE_TOL``, and the robustness bound within ``DISTANCE_SLACK``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PATHS, dominating_spectrum, draw_spectrum, on_path, spectra
from loccxform import (
    SchmidtSpectrum,
    aligned_fidelity,
    majorizes,
    optimal_fidelity,
    robustness_interval,
    tensor,
)
from loccxform.spectra import ORACLE_TOL, pad_pair


def targets(max_n: int = 64):
    """Spectra, a quarter of them with 1-3 levels."""
    return st.one_of(spectra(3), spectra(max_n), spectra(max_n), spectra(max_n))


def f(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> float:
    return optimal_fidelity(alpha, beta).f_opt


def perturbed(rng: np.random.Generator, alpha: SchmidtSpectrum) -> SchmidtSpectrum:
    """alpha with relative noise of 1e-6 to 1e-1 on each coefficient, or
    (one time in four) an independent spectrum of its length."""
    if rng.random() < 0.25:
        return draw_spectrum(rng, len(alpha), "dirichlet")
    scale = 10.0 ** rng.uniform(-6.0, -1.0)
    v = np.sort(alpha.probs * np.abs(1.0 + scale * rng.standard_normal(len(alpha))))[::-1]
    return SchmidtSpectrum(v / v.sum())


def check_monotone(alpha, beta, rng) -> None:
    # alpha -> alpha2 and beta -> beta2 deterministically: moving mass up a level and re-sorting
    alpha2, beta2 = dominating_spectrum(rng, alpha), dominating_spectrum(rng, beta)
    assert majorizes(alpha, alpha2).deterministic and majorizes(beta, beta2).deterministic
    base = f(alpha, beta)
    assert f(alpha2, beta) <= base + ORACLE_TOL, "a less entangled source reached further"
    assert f(alpha, beta2) >= base - ORACLE_TOL, "a less entangled target was reached less well"


def aligned_distance(alpha: SchmidtSpectrum, alpha2: SchmidtSpectrum) -> float:
    """2 sqrt(1 - A**2), A = sum sqrt(a b), without the cancellation of 1 - A**2 in floats:
    1 - A**2 = (1 - A)(1 + A), and 1 - A = sum (sqrt(a) - sqrt(b))**2 / 2 for normalized a, b."""
    a, b = pad_pair(alpha, alpha2)
    ra, rb = np.sqrt(a), np.sqrt(b)
    return 2.0 * math.sqrt(math.fsum(((ra - rb) ** 2).tolist()) / 2 * (1.0 + math.fsum((ra * rb).tolist())))


# sqrt(1 - F) is a metric that LOCC channels do not increase, so a source epsilon away moves
# the exact distance to any target by at most epsilon, which aligned_distance gives without
# cancellation.  The error is in the two report distances compared, whose tail sums are the
# exact ones up to rounding, n eps for n <= 4096 levels.  A pair whose computed tail sums
# dominate reports 0, and its exact gaps T_alpha - T_beta reach -n eps at worst; along the
# hull the gap falls, then rises, so the blocks' sum of |S_k - T_k| is at most 2 n eps,
# 1 - sqrt(F) = sum_k (sqrt(S_k) - sqrt(T_k))**2 / 2 <= n eps and 1 - F <= 2 n eps.  Any
# other pair reports the distance of its blocks, whose 1 - F is within n eps of the exact
# value.  So each distance is within 2 sqrt(2 * 4096 eps) ~ 2.7e-6 of the exact one, as
# |sqrt(x) - sqrt(y)| <= sqrt(|x - y|).
DISTANCE_SLACK = 2 * 2 * math.sqrt(2 * 4096 * np.finfo(float).eps)


def assert_in_robustness_interval(alpha, alpha2, target, t) -> None:
    lower, upper = robustness_interval(alpha, target, aligned_distance(alpha, alpha2))
    assert lower - DISTANCE_SLACK <= t <= upper + DISTANCE_SLACK, "the distance moved more than epsilon"


def check_robustness(alpha, beta, rng) -> None:
    # with alpha2 itself as the target the lower end is sharp where doing
    # nothing is alpha's best conversion toward alpha2
    alpha2 = perturbed(rng, alpha)
    for target in (beta, alpha2):
        assert_in_robustness_interval(alpha, alpha2, target, optimal_fidelity(alpha2, target).trace_distance)


def check_catalysis(alpha, beta, eta) -> None:
    assert f(tensor(alpha, eta), tensor(beta, eta)) >= f(alpha, beta) - ORACLE_TOL, "the catalyst hurt"


def check_supermultiplicative(alpha, beta, gamma, delta) -> None:
    product = f(alpha, beta) * f(gamma, delta)
    assert f(tensor(alpha, gamma), tensor(beta, delta)) >= product - ORACLE_TOL, "f is not supermultiplicative"


def check_xi(alpha, beta) -> None:
    report = optimal_fidelity(alpha, beta)
    assert majorizes(alpha, report.xi).deterministic, "xi is not reachable from alpha"
    assert abs(report.f_opt - aligned_fidelity(report.xi, beta)) <= ORACLE_TOL, "f_opt is not xi's fidelity"


@pytest.mark.parametrize("path", PATHS)
@given(alpha=spectra(), beta=targets(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_f_is_monotone_in_source_and_target(path, alpha, beta, seed):
    with on_path(path):
        check_monotone(alpha, beta, np.random.default_rng(seed))


@pytest.mark.parametrize("path", PATHS)
@given(alpha=spectra(), beta=targets(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_reachable_distance_lies_in_the_robustness_interval(path, alpha, beta, seed):
    with on_path(path):
        check_robustness(alpha, beta, np.random.default_rng(seed))


@pytest.mark.parametrize("path", PATHS)
@given(alpha=spectra(16), beta=targets(16), eta=spectra(3))
@settings(max_examples=25, deadline=None)
def test_a_catalyst_never_hurts(path, alpha, beta, eta):
    with on_path(path):
        check_catalysis(alpha, beta, eta)


@pytest.mark.parametrize("path", PATHS)
@given(alpha=spectra(8), beta=targets(8), gamma=spectra(8), delta=targets(8))
@settings(max_examples=25, deadline=None)
def test_f_is_supermultiplicative_under_tensor_products(path, alpha, beta, gamma, delta):
    with on_path(path):
        check_supermultiplicative(alpha, beta, gamma, delta)


@pytest.mark.parametrize("path", PATHS)
@given(alpha=spectra(), beta=targets())
@settings(max_examples=30, deadline=None)
def test_xi_dominates_alpha_and_attains_f(path, alpha, beta):
    with on_path(path):
        check_xi(alpha, beta)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("n", [1024, 4096])
def test_properties_hold_on_large_pairs(path, n):
    rng = np.random.default_rng(n)
    cubic = (np.arange(1, n + 1) + 1.0) ** -3.0
    pairs = [
        (draw_spectrum(rng, n, "dirichlet"), draw_spectrum(rng, n, "dirichlet")),
        (SchmidtSpectrum(cubic / cubic.sum()), SchmidtSpectrum.uniform(n)),  # one block per level
        (draw_spectrum(rng, n, "subnormal_tail"), draw_spectrum(rng, n // 2, "padded")),
    ]
    eta, small = SchmidtSpectrum((0.6, 0.4)), (SchmidtSpectrum((0.7, 0.3)), SchmidtSpectrum((0.5, 0.5)))
    with on_path(path):
        for alpha, beta in pairs:
            check_monotone(alpha, beta, rng)
            check_robustness(alpha, beta, rng)
            check_catalysis(alpha, beta, eta)
            check_supermultiplicative(alpha, beta, *small)
            check_xi(alpha, beta)


def test_a_reachable_distance_widened_by_1e_5_fails_the_robustness_check():
    # alpha2 within 1e-8 of alpha: its distance to itself is 0, and the interval ends near 1e-8
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    alpha2 = SchmidtSpectrum(alpha.probs * (1.0 + 1e-8 * np.array([1.0, -1.0, -1.0])))
    t = optimal_fidelity(alpha2, alpha2).trace_distance
    assert_in_robustness_interval(alpha, alpha2, alpha2, t)
    with pytest.raises(AssertionError, match="moved more than epsilon"):
        assert_in_robustness_interval(alpha, alpha2, alpha2, t + 1e-5)


@pytest.mark.parametrize("path", PATHS)
def test_robustness_holds_where_one_minus_the_aligned_fidelity_cancels(path):
    # 1 - F rounds to 0 here, so the distance from the fidelity reads 0; the
    # reachable distance to beta moves by 6.0e-10
    alpha, alpha2 = SchmidtSpectrum((1.0, 3.137e-321)), SchmidtSpectrum((1.0 - 9.8e-20, 9.8e-20))
    beta = SchmidtSpectrum((0.92, 0.08))
    assert 2.0 * math.sqrt(1.0 - aligned_fidelity(alpha, alpha2)) == 0.0
    assert aligned_distance(alpha, alpha2) == pytest.approx(2 * math.sqrt(9.8e-20), rel=1e-12)
    with on_path(path):
        for target in (beta, alpha2):
            assert_in_robustness_interval(alpha, alpha2, target, optimal_fidelity(alpha2, target).trace_distance)
