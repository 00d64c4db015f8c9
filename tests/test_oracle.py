import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference as reference
from conftest import floored_spectrum, random_spectrum, random_state, spectra
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
from loccxform.spectra import NORMALIZATION_ATOL, ORACLE_TOL

BELL = SchmidtSpectrum((0.5, 0.5))
PRODUCT = SchmidtSpectrum((1.0,))


def diagonal_state(spectrum: SchmidtSpectrum) -> BipartiteState:
    return BipartiteState(np.diag(np.sqrt(spectrum.as_array())))


# ---------------------------------------------------------------------------
# GridSpec and unitary plumbing
# ---------------------------------------------------------------------------


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0.01)
    with pytest.raises(ValueError):
        GridSpec(2, 0.0)
    assert GridSpec(3, 0.01).resolution == 100
    assert [field.name for field in dataclasses.fields(GridSpec)] == ["dimension", "step"]
    assert GridSpec(1, 2.0**-62).resolution == 2**62
    for step in (2.0**-63, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="^grid step too fine for an int64 resolution: "):
            GridSpec(1, step)
    for dimension in (3.0, 2.5, True, "3", -1):
        with pytest.raises(ValueError, match="dimension"):
            GridSpec(dimension, 0.01)
    value = grid_max_fidelity(BELL, BELL, GridSpec(np.int64(3), 0.02))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_grid_budget_error(monkeypatch):
    assert issubclass(GridBudgetError, ValueError)  # one exception family for refused input
    monkeypatch.setenv("LOCCXFORM_BUDGET", "10")
    with pytest.raises(GridBudgetError, match="budget"):
        grid_max_fidelity(BELL, BELL, GridSpec(2, 0.001))
    # the budget is held against the exact point count, on every call of a key
    for total, parts in [(1, 1), (7, 3), (50, 4), (100, 3), (12, 20)]:
        points = oracle._grid_size(total, parts)
        for _ in range(2):
            monkeypatch.setenv("LOCCXFORM_BUDGET", str(points))
            grid_max_fidelity(PRODUCT, PRODUCT, GridSpec(parts, 1 / total))
            if points == 1:
                continue  # a budget of 0 is refused
            monkeypatch.setenv("LOCCXFORM_BUDGET", str(points - 1))
            with pytest.raises(GridBudgetError, match=f"^{points} grid points exceed the budget"):
                grid_max_fidelity(PRODUCT, PRODUCT, GridSpec(parts, 1 / total))


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
        with pytest.raises(ValueError, match="^LOCCXFORM_BUDGET must be a positive integer: "):
            grid_max_fidelity(BELL, BELL, GridSpec(2, 0.01))


def test_a_budget_past_the_int_digit_limit_is_refused_by_name(monkeypatch):
    # 5000 decimal digits: more than Python's int() converts by default (4300)
    monkeypatch.setenv("LOCCXFORM_BUDGET", "1" * 5000)
    with pytest.raises(ValueError, match="^LOCCXFORM_BUDGET has 5000 digits, "):
        grid_max_fidelity(BELL, BELL, GridSpec(2, 0.01))


@pytest.mark.parametrize(("total", "parts"), [(2, 2), (7, 3), (12, 3), (10, 4), (6, 5), (9, 7), (5, 8)])
def test_the_grid_counts_its_points_exactly_whenever_their_upper_bound_is_over_budget(
    monkeypatch, total, parts
):
    # C(N + k - 1, k - 1) compositions bound the points from above: a budget
    # at or past it skips the exact count, and any budget below the exact
    # count is refused, however close.  _grid_size is replaced by a counter
    # returning the exact count taken first.
    k, grid = min(total, parts), GridSpec(parts, 1 / total)
    exact, compositions = oracle._grid_size(total, parts), math.comb(total + k - 1, k - 1)
    assert exact <= compositions
    counted = []
    monkeypatch.setattr(oracle, "_grid_size", lambda *args: counted.append(args) or exact)
    for budget in {exact - 1, exact, compositions - 1, compositions} - {0}:
        monkeypatch.setenv("LOCCXFORM_BUDGET", str(budget))
        counted.clear()
        if exact > budget:
            with pytest.raises(GridBudgetError, match=f"grid points exceed the budget of {budget}$"):
                grid_max_fidelity(PRODUCT, PRODUCT, grid)
        else:
            assert grid_max_fidelity(PRODUCT, PRODUCT, grid) == pytest.approx(1.0, abs=1e-12)
        # counted between the bounds: at most k! compositions order one point
        lower = -(-compositions // math.factorial(k))
        assert counted == ([(total, parts)] if compositions > budget >= lower else [])


@pytest.mark.parametrize(
    ("sample", "what"),
    [
        (lambda n: sample_unitary_overlap(diagonal_state(BELL), diagonal_state(BELL), n, seed=0), "trials"),
        (lambda n: sample_feasible_ensembles(BELL, BELL, n, seed=0), "ensembles"),
    ],
    ids=["trials", "ensembles"],
)
def test_sample_counts_count_against_the_budget(monkeypatch, sample, what):
    monkeypatch.setenv("LOCCXFORM_BUDGET", "100")
    assert sample(100) is not None
    with pytest.raises(GridBudgetError, match=f"^101 {what} exceed the budget of 100$"):
        sample(101)


def test_a_count_too_long_for_a_decimal_string_is_refused_by_its_size(monkeypatch):
    # a 1000-level pair at step 1e-18 has a lower bound of about 12 850 digits,
    # more than Python converts an int to a string for
    monkeypatch.delenv("LOCCXFORM_BUDGET", raising=False)
    uniform = SchmidtSpectrum.uniform(1000)
    message = r"^at least a \d+-bit number of grid points exceed the budget of 10000000$"
    with pytest.raises(GridBudgetError, match=message):
        grid_max_fidelity(uniform, uniform, GridSpec(1000, 1e-18))
    monkeypatch.setenv("LOCCXFORM_BUDGET", "100")
    count = 10**5000
    with pytest.raises(GridBudgetError, match=f"^a {count.bit_length()}-bit number of trials exceed"):
        sample_unitary_overlap(diagonal_state(BELL), diagonal_state(BELL), count, seed=0)


@pytest.mark.parametrize("resolution", [1, 10, 1000, 10**18, 2**62 - 1, 2**62, 2**62 + 1])
def test_ceil_thresholds_equal_a_fraction_reference(resolution):
    heads = [0.0, 5e-324, 2.5e-323, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0,
             math.nextafter(1.0, 2.0)]
    for k in {1, 3, resolution // 7, resolution - 1, resolution} - {0}:
        at = k / resolution
        heads += [math.nextafter(at, 0.0), at, math.nextafter(at, 2.0)]
    expected = [min(max(math.ceil(Fraction(h) * resolution), 0), resolution) for h in heads]
    assert oracle._exact_ceil_thresholds(np.array(heads), resolution).tolist() == expected


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
    # a large batch meets ill-conditioned Gaussian draws; Householder QR
    # keeps every Q unitary to within 3e-15 whatever Z's condition number
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5, 8):
        us, = oracle._batch_random_unitaries((20_000,), n, rng)
        assert us.shape == (20_000, n, n)
        gram = np.swapaxes(us, 1, 2).conj() @ us
        assert np.linalg.norm(gram - np.eye(n), axis=(1, 2)).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_haar_sampler_is_the_unique_qr_factor_of_the_draws(n):
    # Z = X + iY, X drawn first, has one factorisation Z = UR with U unitary
    # and R upper triangular with a real, positive diagonal: R = U^H Z of
    # the regenerated draws pins both the draw order and the phase fix.  A
    # Haar U has mean zero; without the phase fix entry means reach 0.2-0.6.
    count = 20_000
    us, = oracle._batch_random_unitaries((count,), n, np.random.default_rng(n))
    draws = np.random.default_rng(n)
    real = draws.standard_normal((count, n, n))
    z = real + 1j * draws.standard_normal((count, n, n))
    r = np.swapaxes(us, 1, 2).conj() @ z
    scale = np.linalg.norm(z, axis=(1, 2))
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert (np.abs(np.tril(r, -1)).max(axis=(1, 2)) / scale).max() <= 1e-12
    assert (np.abs(diag.imag).max(axis=1) / scale).max() <= 1e-12
    assert diag.real.min() > 0.0
    assert np.abs(us.mean(axis=0)).max() <= 0.03


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
    assert value <= report.f_opt + NORMALIZATION_ATOL
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
    # (test_sampled_overlaps_are_reproducible compares the sampled values)
    rng = np.random.default_rng(97)
    tau, omega = random_state(rng, 3), random_state(rng, 3)
    a = sample_unitary_overlap(tau, omega, trials=3000, seed=123)
    b = sample_unitary_overlap(tau, omega, trials=3000, seed=123)
    assert a == b


def test_overlaps_of_general_states_match_the_explicit_product():
    # non-diagonal complex states, sampled stacks of unequal lengths and the
    # injected stack through the one overlap routine, which scores every
    # (U_b, V_c) pair
    rng = np.random.default_rng(113)
    for n in range(1, 6):
        tau, omega = random_state(rng, n), random_state(rng, n)
        m_tau, m_omega = tau.amplitudes, omega.amplitudes
        u, v = oracle._aligning_pair(m_tau, m_omega)
        sampled = oracle._batch_random_unitaries((7, 5), n, rng)
        for us, vs in (sampled, (np.stack([np.eye(n), u]), np.stack([np.eye(n), v]))):
            got = oracle._overlaps(m_tau, m_omega, us, vs)
            want = [[abs(np.vdot(m_tau, a @ m_omega @ b.T)) ** 2 for b in vs] for a in us]
            assert got.shape == (len(us), len(vs))
            assert got == pytest.approx(np.array(want), abs=1e-12)


def sampled_overlaps(tau, omega, trials, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate(list(oracle._sampled_overlaps(tau.amplitudes, omega.amplitudes, trials, rng)))


@pytest.mark.parametrize("trials", [1, 2, 3, 7, 1000, 1001])
def test_sampled_overlaps_score_the_first_trials_pairs_of_the_product(trials):
    # ceil(sqrt(trials)) U's, drawn first, by ceil(trials / rows) V's; entry
    # i is the pair (U_(i // cols), V_(i % cols))
    rng = np.random.default_rng(trials)
    n = 3
    tau, omega = random_state(rng, n), random_state(rng, n)
    got = sampled_overlaps(tau, omega, trials, seed=17)
    assert got.shape == (trials,)
    rows = math.ceil(math.sqrt(trials))
    cols = math.ceil(trials / rows)
    draws = np.random.default_rng(17)
    us, = oracle._batch_random_unitaries((rows,), n, draws)
    vs, = oracle._batch_random_unitaries((cols,), n, draws)
    m_tau, m_omega = tau.amplitudes, omega.amplitudes
    want = [abs(np.vdot(m_tau, us[i // cols] @ m_omega @ vs[i % cols].T)) ** 2 for i in range(trials)]
    assert got == pytest.approx(np.array(want), abs=1e-12)


def test_sampled_overlaps_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(131)
    tau, omega = random_state(rng, 4), random_state(rng, 4)
    for trials in (1, 7, 50, 1001):
        whole = sampled_overlaps(tau, omega, trials, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_MC_BLOCK_ELEMENTS", 7)
            blocks = list(oracle._sampled_overlaps(tau.amplitudes, omega.amplitudes, trials,
                                                   np.random.default_rng(3)))
        assert len(blocks) > 1 or trials == 1
        assert np.concatenate(blocks) == pytest.approx(whole, abs=1e-14)


def test_sampled_overlaps_are_reproducible():
    rng = np.random.default_rng(97)
    tau, omega = random_state(rng, 3), random_state(rng, 3)
    a = sampled_overlaps(tau, omega, 3000, seed=123)
    assert a.tobytes() == sampled_overlaps(tau, omega, 3000, seed=123).tobytes()
    assert not np.array_equal(a, sampled_overlaps(tau, omega, 3000, seed=124))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampled_overlaps_average_one_over_n_squared(n):
    # for independent Haar U and V, the average of (U x V) X (U x V)^H is
    # Tr(X) I / n^2, so any state's mean overlap with another is 1/n^2.  A
    # sampler that reused one U for every row would miss it.  Pairs sharing
    # a row are not independent: for these states the mean's relative spread
    # over seeds 0-199 was 3-5%, and its largest deviation 14%
    rng = np.random.default_rng(139 + n)
    tau, omega = random_state(rng, n), random_state(rng, n)
    mean = sampled_overlaps(tau, omega, 10_000, seed=7).mean()
    assert mean == pytest.approx(1.0 / n**2, rel=0.15)


def test_overlap_input_validation():
    tau = diagonal_state(BELL)
    for trials in (0, -3, 2.5, 1000.0, True, "10", None):
        with pytest.raises(ValueError, match="trials"):
            sample_unitary_overlap(tau, tau, trials=trials, seed=0)
    assert sample_unitary_overlap(tau, tau, trials=np.int64(3), seed=0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3)), ((3, 2), (2, 2)), ((2, 2), (2, 3))]
)
def test_overlap_needs_square_states_of_equal_shape(shapes):
    # the local unitaries act on both matrices, so they must be n x n for one n
    tau, omega = (BipartiteState(np.eye(*shape) / math.sqrt(min(shape))) for shape in shapes)
    with pytest.raises(ValueError, match="^states must have equal dimensions"):
        sample_unitary_overlap(tau, omega, trials=1, seed=0)


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


def test_copies_of_alpha_are_feasible_under_any_weights():
    # the weighted average of alpha's level-3 tail sum, 0.2, rounds to
    # 0.2 + 2.8e-17 under these weights; differences of tails are exactly 0
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    weights = [0.39546198954297845, 0.5930180594914135, 0.011519950965607977]
    assert ensemble_is_feasible(alpha, weights, [alpha.probs] * 3)


def test_a_rounded_total_above_one_does_not_reject_a_dominating_branch():
    # the branch dominates alpha at levels 2 and 3; its level-1 tail sum, the
    # total probability, rounds to 1 + 2**-52 while alpha's rounds to 1
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    branch = np.array([0.8276178366889135, 0.1406603107007638, 0.03172185261032282])
    assert oracle._tail_sums(branch)[0] > oracle._tail_sums(alpha.probs)[0]
    assert ensemble_is_feasible(alpha, np.array([1.0]), [branch])


@given(st.integers(2, 6), st.integers(2, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_copies_of_a_random_alpha_are_feasible(n, k, seed):
    rng = np.random.default_rng(seed)
    alpha = random_spectrum(rng, n)
    assert ensemble_is_feasible(alpha, rng.dirichlet(np.ones(k)), [alpha.as_array()] * k)


def test_every_all_variant_row_is_feasible():
    # a shift can leave a computed tail sum an ulp above alpha's; those
    # variants fall back to alpha, so weighted rows of variants never fail
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 6, 10, 64):
        for _ in range(20):
            a = random_spectrum(rng, n).as_array()
            rows = 500
            branches, _ = oracle._dominating_variants(a, oracle._tail_sums(a), rows * 4, rng)
            branches = branches.reshape(rows, 4, n)
            live = np.arange(4) < rng.integers(1, 5, size=(rows, 1))
            weights = rng.standard_exponential((rows, 4)) * live
            weights /= weights.sum(axis=1, keepdims=True)
            assert oracle._feasible(oracle._tail_sums(a), weights, oracle._tail_sums(branches)).all()


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


@pytest.mark.parametrize("seed", [True, False, 2.5, "3", -1, None], ids=repr)
def test_both_oracles_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    # numpy reads True as 1 and None as fresh entropy, and raises TypeError for 2.5 or "3"
    tau = diagonal_state(BELL)
    message = f"seed must be a non-negative integer: {seed!r}"
    with pytest.raises(ValueError) as sampled:
        sample_unitary_overlap(tau, tau, trials=10, seed=seed)
    with pytest.raises(ValueError) as ensembles:
        sample_feasible_ensembles(BELL, BELL, count=5, seed=seed)
    assert str(sampled.value) == str(ensembles.value) == message


def test_both_oracles_take_numpy_integer_seeds():
    alpha = SchmidtSpectrum((0.7, 0.3))
    tau, omega = diagonal_state(alpha), diagonal_state(BELL)
    assert sample_unitary_overlap(tau, omega, 10, np.uint64(3)) == sample_unitary_overlap(tau, omega, 10, 3)
    assert sample_feasible_ensembles(alpha, BELL, 5, np.int32(7)) == sample_feasible_ensembles(alpha, BELL, 5, 7)


@given(spectra(6), spectra(6), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_batched_ensembles_start_with_do_nothing_and_stay_below_optimum(alpha, beta, seed):
    values = sample_feasible_ensembles(alpha, beta, count=300, seed=seed)
    assert len(values) == 300
    assert values[0] == aligned_fidelity(alpha, beta)
    assert max(values) <= optimal_fidelity(alpha, beta).f_opt + 1e-10


def test_one_round_keeps_every_ensemble_it_draws(monkeypatch):
    # rows that fail with their variants standing as alpha become all-variant
    # rows, so 199 draws after the do-nothing ensemble take one round and one
    # variants call
    calls = []
    draw = oracle._dominating_variants
    monkeypatch.setattr(oracle, "_dominating_variants", lambda *args: calls.append(1) or draw(*args))
    rng = np.random.default_rng(199)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, n)
        calls.clear()
        assert len(sample_feasible_ensembles(alpha, beta, count=200, seed=int(rng.integers(2**31)))) == 200
        assert len(calls) == 1


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


# ---------------------------------------------------------------------------
# The batched samplers against their frozen reference, bit for bit
# ---------------------------------------------------------------------------


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


@given(st.integers(1, 8), st.integers(1, 3000), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
@example(n=1, trials=1, seed=0, diagonal=False)
@example(n=3, trials=1000, seed=5, diagonal=True)
def test_sampled_overlap_is_the_references_bitwise(n, trials, seed, diagonal):
    # one QR for both stacks and one stacked SVD give the reference's unitaries
    # bit for bit; BLAS scores the sampled block within an ulp or two of the
    # reference's einsum, and the maximum, the aligning pair's, keeps its bits
    rng = np.random.default_rng(seed)
    if diagonal:  # as verify builds its states
        tau, omega = (diagonal_state(random_spectrum(rng, n)) for _ in range(2))
    else:
        tau, omega = random_state(rng, n), random_state(rng, n)
    m_tau, m_omega = tau.amplitudes, omega.amplitudes
    with (mock.patch.object(oracle, "_MC_BLOCK_ELEMENTS", 7),
          mock.patch.object(reference, "_MC_BLOCK_ELEMENTS", 7)):
        got = sample_unitary_overlap(tau, omega, trials, seed)
        want = reference.sample_unitary_overlap(tau, omega, trials, seed)
        sampled, ref_sampled = (
            np.concatenate(list(module._sampled_overlaps(m_tau, m_omega, trials, np.random.default_rng(seed))))
            for module in (oracle, reference)
        )
    assert got.hex() == want.hex()
    assert sampled == pytest.approx(ref_sampled, rel=0, abs=1e-14)
    rows = math.isqrt(trials - 1) + 1
    stacks = oracle._batch_random_unitaries((rows, -(-trials // rows)), n, np.random.default_rng(seed))
    draws = np.random.default_rng(seed)
    for stack, count in zip(stacks, (rows, -(-trials // rows))):
        assert stack.tobytes() == reference._batch_random_unitaries(count, n, draws).tobytes()
    for mine, theirs in zip(oracle._aligning_pair(m_tau, m_omega), reference._aligning_pair(m_tau, m_omega)):
        assert mine.tobytes() == theirs.tobytes()


def ensembles_match_the_reference(alpha, beta, count, seed):
    got = sample_feasible_ensembles(alpha, beta, count, seed)
    assert hexes(got) == hexes(reference.sample_feasible_ensembles(alpha, beta, count, seed))
    a = alpha.as_array()
    variants, tails = oracle._dominating_variants(a, oracle._tail_sums(a), count, np.random.default_rng(seed))
    want = reference._dominating_variants(a, count, np.random.default_rng(seed))
    assert variants.tobytes() == want.tobytes()
    assert tails.tobytes() == reference._tail_sums(want).tobytes()


@given(spectra(8), spectra(8), st.integers(1, 400), st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_ensembles_are_the_references_bitwise(alpha, beta, count, seed):
    # one tail-sum array beside the branches, the variants sorted in place in
    # one ascending buffer: the same draws in the same order, the same values
    ensembles_match_the_reference(alpha, beta, count, seed)


@pytest.mark.parametrize("n", [64, 1024])
def test_large_ensembles_are_the_references_bitwise(n):
    rng = np.random.default_rng(n)
    for count in (1, 7, 150):
        alpha, beta = random_spectrum(rng, n), random_spectrum(rng, int(rng.integers(1, n + 1)))
        ensembles_match_the_reference(alpha, beta, count, int(rng.integers(2**31)))


def test_one_sampled_overlap_call_factors_with_one_qr_and_one_svd(monkeypatch):
    # the U and V stacks share one QR call, the aligning pair one stacked SVD
    rng = np.random.default_rng(151)
    tau, omega = random_state(rng, 3), random_state(rng, 3)
    calls = {"qr": 0, "svd": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for trials in (1, 1000):
        calls.update(qr=0, svd=0)
        sample_unitary_overlap(tau, omega, trials, seed=4)
        assert calls == {"qr": 1, "svd": 1}
