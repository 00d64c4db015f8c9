"""The linear hull scan against the quadratic reference scan, on both the
floats path and the array path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PATHS, SUBNORMAL, on_path, spectra
from loccxform import (
    SchmidtSpectrum,
    Staircase,
    build_staircase,
    conclusive_probability,
    faithful,
    optimal_fidelity,
    weak_submajorizes,
)
from loccxform.faithful import tail_chain
from loccxform.spectra import RATIO_TIE_TOL, pad_pair
from scan_reference import reference_conclusive, reference_report, reference_weak_submajorizes

def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_staircase_invariants(stairs: Staircase) -> None:
    """What every staircase the hull pass builds must satisfy."""
    starts, ratios = stairs.starts, stairs.ratios
    source, target = stairs.source_mass, stairs.target_mass
    assert starts.size, "staircase needs at least one segment"
    assert ratios.shape == source.shape == target.shape == starts.shape, "columns differ in length"
    assert not any(col.flags.writeable for col in (starts, ratios, source, target)), "columns must be read-only"
    assert starts[-1] == 1, "last segment must start at level 1"
    assert starts[0] <= stairs.dimension, "first segment exceeds the dimension"
    assert np.all(starts[:-1] > starts[1:]), "segment starts must decrease strictly"
    assert np.all(ratios[1:] > ratios[:-1] - RATIO_TIE_TOL), "segment ratios must increase"
    assert source.min() >= -RATIO_TIE_TOL and target.min() > 0.0, "segment masses out of range"
    assert abs(math.fsum(source.tolist()) - 1.0) <= 1e-9, "source masses must telescope to 1"
    assert abs(math.fsum(target.tolist()) - 1.0) <= 1e-9, "target masses must telescope to 1"


@st.composite
def raw_spectra(draw) -> list[float]:
    """Unnormalized coefficients of one of the numerically awkward kinds."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "rounded", "near_degenerate", "subnormal_tail"]))
    if kind == "random":
        vals = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    elif kind == "rounded":
        # 1 or 2 decimals: many exactly tied tail ratios in real arithmetic
        units = draw(st.sampled_from([10, 100]))
        cuts = sorted(draw(st.lists(st.integers(0, units), min_size=n - 1, max_size=n - 1)))
        vals = [(hi - lo) / units for lo, hi in zip([0] + cuts, cuts + [units])]
        if not any(vals):
            vals = [1.0]
    elif kind == "near_degenerate":
        eps = draw(st.floats(1e-16, 1e-10))
        offsets = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        vals = [1.0 + eps * k for k in offsets]
    else:
        head = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=n))
        tail = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=3))
        vals = head + [k * SUBNORMAL for k in tail]
    return vals + [0.0] * draw(st.integers(0, 3))


def spectrum(vals: list[float]) -> SchmidtSpectrum:
    arr = np.sort(np.array(vals))[::-1]
    return SchmidtSpectrum(tuple((arr / arr.sum()).tolist()))


@st.composite
def pairs(draw) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    a = draw(raw_spectra())
    if draw(st.booleans()):
        b = draw(raw_spectra())
    else:
        # a relative perturbation of the source: tail ratios crowd around 1
        eps = draw(st.floats(0.0, 1e-10))
        offsets = draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
        b = [v * (1.0 + eps * k) for v, k in zip(a, offsets)]
        b = b + [0.0] * draw(st.integers(0, 2))
    return spectrum(a), spectrum(b)


@st.composite
def large_pairs(draw) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """A spectrum of 200 to 1000 levels, long enough for the pre-pass, and an
    independent, perturbed or uniform target."""
    alpha = draw(spectra(1000, min_n=200))
    target = draw(st.sampled_from(["independent", "perturbed", "uniform"]))
    if target == "independent":
        return alpha, draw(spectra(1000, min_n=200))
    if target == "perturbed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        eps = 10.0 ** draw(st.floats(-13.0, -10.0))
        return alpha, spectrum((alpha.probs * (1.0 + eps * rng.integers(-3, 4, len(alpha)))).tolist())
    return alpha, SchmidtSpectrum.uniform(len(alpha))


def assert_matches_reference(alpha: SchmidtSpectrum, beta: SchmidtSpectrum) -> None:
    want = reference_report(alpha, beta)
    got = optimal_fidelity(alpha, beta)
    assert_staircase_invariants(got.staircase)
    assert [s.start for s in got.staircase.segments] == [s[0] for s in want["segments"]]
    assert got.staircase.dimension == want["dimension"]
    assert bits(got.staircase.segments) == bits(want["segments"])
    assert bits(got.xi.probs) == bits(want["xi"])
    assert bits([got.f_opt, got.trace_distance, got.conclusive_p]) == bits(
        [want["f_opt"], want["trace_distance"], want["conclusive_p"]]
    )
    assert got.deterministic == want["deterministic"]
    assert got.staircase.starts.dtype == np.dtype(int)
    columns = (got.staircase.ratios, got.staircase.source_mass, got.staircase.target_mass, got.xi.probs)
    assert all(column.dtype == np.float64 for column in columns)


@pytest.mark.parametrize("path", PATHS)
@given(pair=pairs())
@settings(max_examples=400, deadline=None)
def test_hull_scan_reproduces_reference_report_bitwise(path, pair):
    with on_path(path):
        assert_matches_reference(*pair)


@given(pairs())
@settings(max_examples=400, deadline=None)
def test_prepass_on_every_pair_reproduces_reference_report_bitwise(pair):
    with on_path("array"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(faithful, "_PREPASS_MIN_POINTS", 0)
        assert_matches_reference(*pair)


@pytest.mark.parametrize("path", PATHS)
@given(pair=large_pairs())
@settings(max_examples=60, deadline=None)
def test_large_pairs_reproduce_reference_report_bitwise(path, pair):
    with on_path(path):
        assert_matches_reference(*pair)


@pytest.mark.parametrize("path", PATHS)
@given(pair=st.one_of(pairs(), large_pairs()))
@settings(max_examples=200, deadline=None)
def test_fidelity_verdict_is_the_reports_bitwise(path, pair):
    with on_path(path):
        report = optimal_fidelity(*pair)
        f_opt, distance, deterministic = faithful.fidelity_verdict(*pair)
    assert bits([f_opt, distance]) == bits([report.f_opt, report.trace_distance])
    assert deterministic is report.deterministic


@given(pair=st.one_of(pairs(), large_pairs()))
@settings(max_examples=300, deadline=None)
def test_conclusive_tests_match_the_full_tail_formula_bitwise(pair):
    # the chain holds only the levels where beta has mass; the full tails
    # past beta's support constrain neither test
    p_star = conclusive_probability(*pair)
    assert bits([p_star]) == bits([reference_conclusive(*pair)])
    for p in (0.0, 0.3, p_star, 1.0):
        assert weak_submajorizes(*pair, p) is reference_weak_submajorizes(*pair, p)


@pytest.mark.parametrize("offset", [-1, 0], ids=["below", "at"])
def test_pairs_at_the_float_path_boundary_match_the_reference(offset, monkeypatch):
    # padded length _FLOAT_PATH_LEVELS - 1 takes the floats path, the constant itself the array path
    size = faithful._FLOAT_PATH_LEVELS + offset
    rng = np.random.default_rng(size)
    cubic = (np.arange(1, size + 1) + 1.0) ** -3.0
    cuts = np.sort(rng.integers(0, 101, size - 1))
    candidates = [
        (rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))),
        (cubic, np.ones(size)),  # one block per level
        (rng.dirichlet(np.ones(size // 2)), np.diff(np.concatenate(([0], cuts, [100]))) / 100),
        (np.concatenate((rng.dirichlet(np.ones(size - 3)), [0.0] * 3)), rng.dirichlet(np.ones(size))),
    ]
    padded = []
    real_pad_pair = faithful.pad_pair
    monkeypatch.setattr(faithful, "pad_pair", lambda *args: padded.append(1) or real_pad_pair(*args))
    for a, b in candidates:
        padded.clear()
        alpha, beta = spectrum(a.tolist()), spectrum(b.tolist())
        assert max(len(alpha), len(beta)) == size
        assert_matches_reference(alpha, beta)
        assert bool(padded) is (offset == 0), "the pair took the wrong path"


def test_prepass_keeps_vertices_of_near_tied_pairs():
    # tail ratios within a few 1e-12 of each other: a pre-pass whose band
    # lacks its x_L / p factor drops vertices of the tie-tolerant hull at
    # n = 200; within a few 1e-11, an end record test whose band lacks its
    # x_P / (x_E - x_P) factor drops vertices near the top at n = 400
    for n, eps, seeds in ((200, 3e-12, 5), (400, 3e-11, 8)):
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            beta = rng.dirichlet(np.ones(n))
            alpha = beta * (1.0 + eps * rng.integers(-3, 4, n))
            assert_matches_reference(spectrum(alpha.tolist()), spectrum(beta.tolist()))


def test_worst_case_has_one_block_per_level(monkeypatch):
    # the convex short-circuit settles it after one round, before the record
    # tests and without the per-level hull loop
    def hull_loop(xs, ys):
        raise AssertionError("the convex chain entered the per-level hull loop")

    def records(x, y):
        raise AssertionError("the convex chain reached the record tests")

    monkeypatch.setattr(faithful, "_hull_vertices", hull_loop)
    monkeypatch.setattr(faithful, "_records", records)
    n = 4096
    source = (np.arange(1, n + 1) + 1.0) ** -3.0
    alpha = SchmidtSpectrum(tuple((source / source.sum()).tolist()))
    stairs = optimal_fidelity(alpha, SchmidtSpectrum.uniform(n)).staircase
    assert_staircase_invariants(stairs)
    assert len(stairs.segments) == stairs.dimension == n
    assert [s.start for s in stairs.segments] == list(range(n, 0, -1))


@st.composite
def near_tied_pairs(draw) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """A spectrum of 200 to 1000 levels and a target within a few 1e-12 of it, relatively."""
    alpha = draw(spectra(1000, min_n=200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return alpha, spectrum((alpha.probs * (1.0 + 1e-12 * rng.integers(-3, 4, len(alpha)))).tolist())


@given(pair=st.one_of(large_pairs(), near_tied_pairs()))
@settings(max_examples=100, deadline=None)
def test_record_tests_keep_every_block_start(pair):
    # on the whole chain, so on every sub-chain the pre-pass hands them: a
    # later minimum or an earlier maximum over fewer points drops no more
    points = tail_chain(pad_pair(*pair))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(faithful, "_records", lambda x, y: np.arange(len(x)))
        without = build_staircase(*pair)
    with np.errstate(over="ignore", invalid="ignore"):  # as the pre-pass calls it
        kept = faithful._records(*points)
    assert kept[0] == 0 and kept[-1] == points.shape[1] - 1
    assert set(without.starts.tolist()) <= set((points.shape[1] - kept).tolist())
    assert bits(build_staircase(*pair).segments) == bits(without.segments)


def test_prepass_keeps_every_block_start(monkeypatch):
    rng = np.random.default_rng(7)
    n = 4096
    for _ in range(3):
        alpha, beta = (spectrum(rng.dirichlet(np.ones(n)).tolist()) for _ in range(2))
        points = tail_chain(pad_pair(alpha, beta))
        assert points.shape == (2, n + 1)
        keep, convex = faithful._prune(points)
        stairs = build_staircase(alpha, beta)
        with monkeypatch.context() as patch:
            patch.setattr(faithful, "_PREPASS_MIN_POINTS", n + 2)
            full = build_staircase(alpha, beta)
        assert not convex
        assert set(full.starts.tolist()) <= set((n + 1 - keep).tolist())
        assert len(keep) < (n + 1) // 4, "the pre-pass should drop most points of a random pair"
        assert bits(stairs.segments) == bits(full.segments)


@pytest.mark.parametrize("path", PATHS)
def test_report_builds_no_spectrum_besides_xi(monkeypatch, path):
    alpha = SchmidtSpectrum((0.55, 0.25, 0.2))
    beta = SchmidtSpectrum((0.5, 0.3, 0.1, 0.1))
    built = []
    validate = SchmidtSpectrum.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(SchmidtSpectrum, "__post_init__", counting)
    with on_path(path):
        report = optimal_fidelity(alpha, beta)
        assert built == [report.xi]
        built.clear()
        faithful.fidelity_verdict(alpha, beta)
    assert built == []
