import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import floored_spectrum, random_spectrum, random_state
from loccxform import (
    BipartiteState,
    GridBudgetError,
    GridSpec,
    SchmidtSpectrum,
    aligned_fidelity,
    ensemble_is_feasible,
    grid_max_fidelity,
    optimal_fidelity,
    oracle,
    sample_feasible_ensembles,
    sample_unitary_overlap,
    schmidt_spectrum,
)
from loccxform.oracle import grid_fidelity_floor
from loccxform.spectra import FIDELITY_SNAP, ORACLE_TOL

BELL = SchmidtSpectrum((0.5, 0.5))
PRODUCT = SchmidtSpectrum((1.0,))


def diagonal_state(spectrum: SchmidtSpectrum) -> BipartiteState:
    return BipartiteState(np.diag(np.sqrt(spectrum.as_array())))


def qr_haar_unitaries(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Reference Haar sampler: LAPACK QR of complex Gaussians, with R's
    diagonal phases moved into Q.  Draws the same normals as the oracle."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# ---------------------------------------------------------------------------
# GridSpec and unitary plumbing
# ---------------------------------------------------------------------------


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0.01)
    with pytest.raises(ValueError):
        GridSpec(2, 0.0)
    assert GridSpec(3, 0.01).resolution == 100
    assert GridSpec(3, 0.01, budget=5).resolved_budget == 5
    assert GridSpec(3, 0.01, budget=np.int64(5)).resolved_budget == 5
    assert GridSpec(1, 2.0**-62).resolution == 2**62
    for step in (2.0**-63, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="^grid step too fine for an int64 resolution: "):
            GridSpec(1, step)
    for budget in (0, -5, 2.5, True, "10"):
        with pytest.raises(ValueError, match="budget"):
            GridSpec(3, 0.01, budget=budget)
    for dimension in (3.0, 2.5, True, "3", -1):
        with pytest.raises(ValueError, match="dimension"):
            GridSpec(dimension, 0.01)
    value = grid_max_fidelity(BELL, BELL, GridSpec(np.int64(3), 0.02))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_grid_budget_error():
    with pytest.raises(GridBudgetError, match="budget"):
        grid_max_fidelity(BELL, BELL, GridSpec(2, 0.001, budget=10))
    # the budget is held against the exact point count, on every call of a key
    for total, parts in [(1, 1), (7, 3), (50, 4), (100, 3), (12, 20)]:
        points = oracle._grid_size(total, parts)
        for _ in range(2):
            grid_max_fidelity(PRODUCT, PRODUCT, GridSpec(parts, 1 / total, budget=points))
            if points == 1:
                continue  # a budget of 0 is not a GridSpec
            with pytest.raises(GridBudgetError, match=f"^{points} grid points exceed the budget"):
                grid_max_fidelity(PRODUCT, PRODUCT, GridSpec(parts, 1 / total, budget=points - 1))


def test_grid_budget_refuses_a_fine_grid_without_counting_it():
    # 10^7 steps into 3 slots: about 8.3e12 points.  Counting them exactly
    # would take a list of 10^7 + 1 counts; the closed-form bound needs none.
    tracemalloc.start()
    try:
        with pytest.raises(GridBudgetError, match="budget"):
            grid_max_fidelity(BELL, BELL, GridSpec(3, 1e-7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("LOCCXFORM_BUDGET", "3")
    with pytest.raises(GridBudgetError):
        grid_max_fidelity(BELL, BELL, GridSpec(2, 0.01))
    monkeypatch.setenv("LOCCXFORM_BUDGET", "1000000")
    assert grid_max_fidelity(BELL, BELL, GridSpec(2, 0.01)) == pytest.approx(1.0, abs=1e-12)
    for text in ("abc", "-5", "0", "", "2.5"):
        monkeypatch.setenv("LOCCXFORM_BUDGET", text)
        with pytest.raises(ValueError, match="LOCCXFORM_BUDGET"):
            grid_max_fidelity(BELL, BELL, GridSpec(2, 0.01))


def test_unitary_pair_validation():
    # the basis-aligning pair the Monte Carlo oracle injects is unitary and
    # reaches the aligned fidelity
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5):
        tau, omega = random_state(rng, n), random_state(rng, n)
        u, v = oracle._aligning_pair(tau.amplitudes, omega.amplitudes)
        for mat in (u, v):
            assert mat.shape == (n, n)
            assert np.allclose(mat.conj().T @ mat, np.eye(n), atol=1e-10)
        overlap = abs(np.vdot(tau.amplitudes, u @ omega.amplitudes @ v.T)) ** 2
        expected = aligned_fidelity(schmidt_spectrum(tau), schmidt_spectrum(omega))
        assert overlap == pytest.approx(expected, abs=1e-10)


def test_haar_random_unitary_is_unitary():
    # a large batch meets ill-conditioned Gaussian draws.  One Gram-Schmidt
    # pass leaves errors of 3e-14 to 2e-13 on these batches; the second pass
    # must bring every matrix back to about 1e-15
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5, 8):
        us = oracle._batch_random_unitaries(20_000, n, rng)
        assert us.shape == (20_000, n, n)
        gram = np.swapaxes(us, 1, 2).conj() @ us
        assert np.linalg.norm(gram - np.eye(n), axis=(1, 2)).max() <= 1e-14


def test_haar_sampler_matches_the_qr_construction():
    # Q with a positive real diagonal in R is unique: from the same generator
    # state, Gram-Schmidt and QR give the same unitaries up to rounding
    for n in (1, 2, 3, 5, 8):
        got = oracle._batch_random_unitaries(2000, n, np.random.default_rng(n))
        want = qr_haar_unitaries(2000, n, np.random.default_rng(n))
        assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# Grid search oracle
# ---------------------------------------------------------------------------


def test_grid_reaches_one_when_convertible():
    alpha = SchmidtSpectrum((0.4, 0.4, 0.2))
    beta = SchmidtSpectrum((0.7, 0.2, 0.1))
    value = grid_max_fidelity(alpha, beta, GridSpec(3, 0.01))
    assert value >= 1.0 - 0.01


def test_grid_near_do_nothing_optimum():
    value = grid_max_fidelity(SchmidtSpectrum((0.8, 0.2)), BELL, GridSpec(2, 0.01))
    assert abs(value - 0.9) <= 0.01
    assert value <= optimal_fidelity(SchmidtSpectrum((0.8, 0.2)), BELL).f_opt + 1e-12


def test_grid_near_two_block_optimum():
    alpha = SchmidtSpectrum((0.55, 0.25, 0.2))
    beta = SchmidtSpectrum((0.5, 0.4, 0.1))
    value = grid_max_fidelity(alpha, beta, GridSpec(3, 0.005))
    theorem = optimal_fidelity(alpha, beta).f_opt
    assert abs(value - theorem) <= 0.003
    assert value <= theorem + 1e-12


def test_grid_one_sided_and_resolution_bound():
    rng = np.random.default_rng(71)
    step = 0.01
    for _ in range(40):
        n = int(rng.integers(2, 5))
        alpha, beta = floored_spectrum(rng, n), floored_spectrum(rng, n)
        theorem = optimal_fidelity(alpha, beta).f_opt
        value = grid_max_fidelity(alpha, beta, GridSpec(n, step))
        assert value <= theorem + 1e-12
        assert theorem - value <= 2 * step


@given(
    st.integers(2, 5), st.sampled_from([1.0, 0.3]), st.floats(0.01, 0.1), st.integers(0, 2**32 - 1)
)
@settings(max_examples=150, deadline=None)
def test_grid_never_falls_below_its_floor(n, concentration, step, seed):
    rng = np.random.default_rng(seed)
    alpha, beta = (SchmidtSpectrum(np.sort(rng.dirichlet(np.full(n, concentration)))[::-1]) for _ in "ab")
    spec = GridSpec(n, step)
    report = optimal_fidelity(alpha, beta)
    value = grid_max_fidelity(alpha, beta, spec)
    assert value <= report.f_opt + FIDELITY_SNAP
    assert value >= grid_fidelity_floor(report.xi, beta, spec) - ORACLE_TOL


def test_grid_dimension_mismatch():
    with pytest.raises(ValueError, match="support"):
        grid_max_fidelity(SchmidtSpectrum((0.5, 0.3, 0.2)), BELL, GridSpec(2, 0.01))
    # padding up is fine
    value = grid_max_fidelity(BELL, BELL, GridSpec(3, 0.02))
    assert value == pytest.approx(1.0, abs=1e-12)


def decimal_spectrum(rng: np.random.Generator, n: int, places: int) -> SchmidtSpectrum:
    """Random spectrum of multiples of 10^-places: its partial sums land on
    grid thresholds exactly when the resolution is a multiple of 10^places."""
    units = rng.multinomial(10**places, rng.dirichlet(np.ones(n)))
    return SchmidtSpectrum(np.sort(units)[::-1] / 10**places)


def listed_grid_max_fidelity(
    points: list[tuple[int, ...]], alpha: SchmidtSpectrum, beta: SchmidtSpectrum, resolution: int
) -> float:
    """Reference: the best overlap with beta over the listed grid points
    whose partial sums reach alpha's (capped at 1, as normalisation allows)."""
    heads = [min(Fraction(s), 1) for s in itertools.accumulate(alpha.probs.tolist())]
    b = beta.probs.tolist() + [0.0] * (len(heads) - len(beta))
    best = max(
        math.fsum(math.sqrt(v * b_i) for v, b_i in zip(point, b))
        for point in points
        if all(Fraction(c, resolution) >= h for c, h in zip(itertools.accumulate(point), heads))
    )
    return min(1.0, best**2 / resolution)


def test_grid_walk_matches_listing_every_sorted_point():
    rng = np.random.default_rng(2024)
    for n, resolution in [(1, 24), (2, 24), (3, 24), (4, 20), (5, 12), (6, 10), (6, 12)]:
        points = [
            point
            for point in itertools.combinations_with_replacement(range(resolution, -1, -1), n)
            if sum(point) == resolution
        ]
        assert oracle._grid_size(resolution, n) == len(points)
        pairs = [(random_spectrum(rng, n), random_spectrum(rng, n)) for _ in range(4)]
        pairs += [(decimal_spectrum(rng, n, places), decimal_spectrum(rng, n, places))
                  for places in (1, 1, 2, 2)]
        pairs += [(decimal_spectrum(rng, n, 1), random_spectrum(rng, n)) for _ in range(2)]
        for alpha, beta in pairs:
            expected = listed_grid_max_fidelity(points, alpha, beta, resolution)
            value = grid_max_fidelity(alpha, beta, GridSpec(n, 1 / resolution))
            assert value == pytest.approx(expected, abs=1e-14)


def test_grid_walk_memory_stays_within_its_frontier():
    # 7 slots at step 0.01: 596 763 sorted points.  The walk holds a few
    # arrays of one row per prefix and peaked at 36 MiB; a table of every
    # point with its partial sums peaked at 197 MiB.
    uniform = SchmidtSpectrum.uniform(7)
    tracemalloc.start()
    try:
        value = grid_max_fidelity(uniform, uniform, GridSpec(7, 0.01))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value <= 1.0
    assert peak < 100 * 2**20


# ---------------------------------------------------------------------------
# Local-unitary overlap sampling
# ---------------------------------------------------------------------------


def test_overlap_identity_case():
    s = SchmidtSpectrum((0.7, 0.2, 0.1))
    tau = diagonal_state(s)
    value = sample_unitary_overlap(tau, tau, trials=50, seed=0)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_overlap_respects_aligned_bound_and_attains_it():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        tau, omega = random_state(rng, n), random_state(rng, n)
        bound = aligned_fidelity(schmidt_spectrum(tau), schmidt_spectrum(omega))
        value = sample_unitary_overlap(tau, omega, trials=500, seed=int(rng.integers(2**31)))
        assert value <= bound + 1e-9
        assert value >= bound - 1e-10


def test_overlap_partially_entangled_vs_bell():
    tau = diagonal_state(SchmidtSpectrum((0.8, 0.2)))
    omega = diagonal_state(BELL)
    value = sample_unitary_overlap(tau, omega, trials=10_000, seed=5)
    assert value <= 0.9 + 1e-9
    assert value >= 0.9 - 0.02


def test_overlap_reproducible():
    # same seed, bit-identical result; the attained maximum itself is the
    # injected aligning value, so different seeds may coincide
    rng = np.random.default_rng(97)
    tau, omega = random_state(rng, 3), random_state(rng, 3)
    a = sample_unitary_overlap(tau, omega, trials=3000, seed=123)
    b = sample_unitary_overlap(tau, omega, trials=3000, seed=123)
    assert a == b


def test_overlaps_of_general_states_match_the_explicit_product():
    # non-diagonal complex states, sampled pairs (a batch-last view) and the
    # injected stack (contiguous) through the one overlap routine
    rng = np.random.default_rng(113)
    for n in range(1, 6):
        tau, omega = random_state(rng, n), random_state(rng, n)
        m_tau, m_omega = tau.amplitudes, omega.amplitudes
        u, v = oracle._aligning_pair(m_tau, m_omega)
        sampled = (oracle._batch_random_unitaries(7, n, rng), oracle._batch_random_unitaries(7, n, rng))
        for us, vs in (sampled, (np.stack([np.eye(n), u]), np.stack([np.eye(n), v]))):
            got = oracle._overlaps(m_tau, m_omega, us, vs)
            want = [abs(np.vdot(m_tau, a @ m_omega @ b.T)) ** 2 for a, b in zip(us, vs)]
            assert got == pytest.approx(want, abs=1e-12)


def test_overlap_input_validation():
    tau = diagonal_state(BELL)
    for trials in (0, -3, 2.5, 1000.0, True, "10", None):
        with pytest.raises(ValueError, match="trials"):
            sample_unitary_overlap(tau, tau, trials=trials, seed=0)
    assert sample_unitary_overlap(tau, tau, trials=np.int64(3), seed=0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="dimensions"):
        sample_unitary_overlap(tau, diagonal_state(SchmidtSpectrum.uniform(3)), trials=1, seed=0)


# ---------------------------------------------------------------------------
# Feasible-ensemble sampling
# ---------------------------------------------------------------------------


def test_first_ensemble_is_do_nothing():
    alpha = SchmidtSpectrum((0.8, 0.2))
    values = sample_feasible_ensembles(alpha, BELL, count=5, seed=9)
    assert values[0] == aligned_fidelity(alpha, BELL)


def test_no_ensemble_beats_the_optimum():
    rng = np.random.default_rng(103)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        f_opt = optimal_fidelity(alpha, beta).f_opt
        values = sample_feasible_ensembles(alpha, beta, count=200, seed=int(rng.integers(2**31)))
        assert len(values) == 200
        assert max(values) <= f_opt + 1e-10


def test_conclusive_style_ensemble_is_feasible_and_below_optimum():
    # trying for the balanced state from (0.8, 0.2) succeeds with weight 0.4
    # and otherwise leaves a product state; the average overlap is 0.7
    alpha = SchmidtSpectrum((0.8, 0.2))
    weights = np.array([0.4, 0.6])
    branches = [BELL.as_array(), np.array([1.0, 0.0])]
    assert ensemble_is_feasible(alpha, weights, branches)
    average = 0.4 * aligned_fidelity(BELL, BELL) + 0.6 * aligned_fidelity(
        SchmidtSpectrum((1.0, 0.0)), BELL
    )
    assert average == pytest.approx(0.7, abs=1e-12)
    assert average <= optimal_fidelity(alpha, BELL).f_opt - 0.1


def test_infeasible_ensemble_detected():
    # a pure balanced branch would increase the bottom tail sum
    alpha = SchmidtSpectrum((0.8, 0.2))
    assert not ensemble_is_feasible(alpha, np.array([1.0]), [BELL.as_array()])


def test_ensemble_with_fewer_branches_than_weights_is_rejected():
    with pytest.raises(ValueError, match=r"weights of shape \(2,\) for 1 branches"):
        ensemble_is_feasible(SchmidtSpectrum((0.8, 0.2)), np.array([0.5, 0.5]), [np.array([1.0, 0.0])])


@pytest.mark.parametrize("weights", [[0.7, 0.7], [0.3, 0.3], [1.5, -0.5], [float("nan"), 1.0]])
def test_ensemble_weights_must_be_a_probability_vector(weights):
    branches = [np.array([1.0, 0.0]), BELL.as_array()]
    with pytest.raises(ValueError, match="probability vector"):
        ensemble_is_feasible(SchmidtSpectrum((0.8, 0.2)), np.array(weights), branches)


def test_ensemble_branches_must_be_spectra():
    with pytest.raises(ValueError, match="not normalized"):
        ensemble_is_feasible(SchmidtSpectrum((0.8, 0.2)), np.array([1.0]), [np.array([0.5, 0.4])])


def test_ensemble_branches_of_unequal_lengths_are_padded():
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    branches = [np.array([1.0]), np.array([0.5, 0.3, 0.2, 0.0])]
    assert ensemble_is_feasible(alpha, np.array([0.25, 0.75]), branches)
    assert not ensemble_is_feasible(alpha, np.array([1.0]), [SchmidtSpectrum.uniform(4).as_array()])


def test_ensembles_reproducible():
    a = sample_feasible_ensembles(SchmidtSpectrum((0.7, 0.3)), BELL, count=50, seed=7)
    b = sample_feasible_ensembles(SchmidtSpectrum((0.7, 0.3)), BELL, count=50, seed=7)
    assert a == b


def test_ensembles_count_validation():
    for count in (0, -1, 10.0, 2.5, True, "10"):
        with pytest.raises(ValueError, match="count"):
            sample_feasible_ensembles(BELL, BELL, count=count, seed=0)
    assert len(sample_feasible_ensembles(BELL, BELL, count=np.int32(5), seed=0)) == 5


@st.composite
def zero_padded_spectra(draw) -> SchmidtSpectrum:
    """Spectra of length 1..6, some ending in zero coefficients."""
    n = draw(st.integers(1, 6))
    zeros = draw(st.integers(0, n - 1))
    vals = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n - zeros, max_size=n - zeros)))
    return SchmidtSpectrum(tuple(np.sort(vals / vals.sum())[::-1].tolist()) + (0.0,) * zeros)


@given(zero_padded_spectra(), zero_padded_spectra(), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_batched_ensembles_start_with_do_nothing_and_stay_below_optimum(alpha, beta, seed):
    values = sample_feasible_ensembles(alpha, beta, count=300, seed=seed)
    assert len(values) == 300
    assert values[0] == aligned_fidelity(alpha, beta)
    assert max(values) <= optimal_fidelity(alpha, beta).f_opt + 1e-10


def test_ensembles_at_large_n_take_several_batches():
    n = 4096
    # the element budget holds fewer than 20 ensembles of 4 branches at n=4096
    assert oracle._ENSEMBLE_BATCH_ELEMENTS // (oracle._ENSEMBLE_MAX_BRANCHES * n) < 20
    rng = np.random.default_rng(4096)
    alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
    values = sample_feasible_ensembles(alpha, beta, count=20, seed=5)
    assert len(values) == 20
    assert values[0] == aligned_fidelity(alpha, beta)
    assert max(values) <= optimal_fidelity(alpha, beta).f_opt + 1e-10
