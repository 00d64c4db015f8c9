"""The paper's consequences that need no oracle, on both paths and at every
size from 1 level to 4096: the optimal fidelity f is monotone in the source
and in the target, a source epsilon away moves the reachable trace distance
by at most epsilon, a catalyst never hurts, f is supermultiplicative under
tensor products, and xi dominates alpha with f = aligned(xi, beta).

Hypothesis draws pairs of up to 64 levels, a few seeded pairs run at 1024 and
4096 levels.  Every bound on f holds within ``ORACLE_TOL``, and every bound
on a trace distance within what that tolerance allows a square root."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PATHS, dominating_spectrum, on_path
from loccxform import (
    SchmidtSpectrum,
    aligned_fidelity,
    majorizes,
    optimal_fidelity,
    robustness_interval,
    tensor,
    trace_distance_from_fidelity,
)
from loccxform.spectra import ORACLE_TOL

KINDS = ("dirichlet", "rounded", "subnormal_tail", "padded")


def draw_spectrum(rng: np.random.Generator, n: int, kind: str) -> SchmidtSpectrum:
    """An n-level spectrum of one kind: Dirichlet 0.2, 1 or 5; 2-decimal
    coefficients (exact ties); a subnormal tail; or trailing zeros."""
    if kind == "rounded":
        cuts = np.sort(rng.integers(0, 101, n - 1))
        v = np.diff(np.concatenate(([0], cuts, [100]))) / 100
    elif kind == "subnormal_tail" and n > 1:
        tail = int(rng.integers(1, min(n, 4)))
        v = np.concatenate((rng.uniform(1e-3, 1.0, n - tail), rng.integers(1, 1001, tail) * 5e-324))
    else:
        v = rng.dirichlet(np.full(n, rng.choice([0.2, 1.0, 5.0])))
        if kind == "padded":
            v[int(rng.integers(1, n + 1)) :] = 0.0
    v = np.sort(v)[::-1]
    return SchmidtSpectrum(v / v.sum())


@st.composite
def spectra(draw, max_n: int = 64) -> SchmidtSpectrum:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw_spectrum(rng, draw(st.integers(1, max_n)), draw(st.sampled_from(KINDS)))


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


# A trace distance 2 sqrt(1 - F) of a fidelity F within ORACLE_TOL is within
# this, as |sqrt(x) - sqrt(y)| <= sqrt(|x - y|); it covers FIDELITY_SNAP too.
DISTANCE_TOL = 2 * math.sqrt(ORACLE_TOL)


def check_robustness(alpha, beta, rng) -> None:
    # sqrt(1 - F) is a metric that LOCC channels do not increase; three
    # distances enter the comparison, each within DISTANCE_TOL.  With alpha2
    # itself as the target the lower end is sharp where doing nothing is
    # alpha's best conversion toward alpha2.
    alpha2 = perturbed(rng, alpha)
    epsilon = trace_distance_from_fidelity(aligned_fidelity(alpha, alpha2))
    for target in (beta, alpha2):
        lower, upper = robustness_interval(alpha, target, epsilon)
        t = optimal_fidelity(alpha2, target).trace_distance
        assert lower - 3 * DISTANCE_TOL <= t <= upper + 3 * DISTANCE_TOL, "the distance moved more than epsilon"


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
