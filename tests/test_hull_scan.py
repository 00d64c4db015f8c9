"""The linear hull scan against the quadratic reference scan."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loccxform import SchmidtSpectrum, build_staircase, optimal_fidelity
from scan_reference import reference_report

SUBNORMAL = 5e-324


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


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


@given(pairs())
@settings(max_examples=400, deadline=None)
def test_hull_scan_reproduces_reference_report_bitwise(pair):
    alpha, beta = pair
    want = reference_report(alpha, beta)
    got = optimal_fidelity(alpha, beta)
    assert [s.start for s in got.staircase.segments] == [s[0] for s in want["segments"]]
    assert got.staircase.dimension == want["dimension"]
    assert bits(got.staircase.segments) == bits(want["segments"])
    assert bits(got.xi.probs) == bits(want["xi"])
    assert bits([got.f_opt, got.trace_distance, got.conclusive_p]) == bits(
        [want["f_opt"], want["trace_distance"], want["conclusive_p"]]
    )
    assert got.deterministic == want["deterministic"]


def test_worst_case_has_one_block_per_level():
    n = 4096
    source = (np.arange(1, n + 1) + 1.0) ** -3.0
    alpha = SchmidtSpectrum(tuple((source / source.sum()).tolist()))
    stairs = build_staircase(alpha, SchmidtSpectrum.uniform(n))
    assert len(stairs.segments) == stairs.dimension == n
    assert [s.start for s in stairs.segments] == list(range(n, 0, -1))


def test_report_builds_no_spectrum_besides_xi(monkeypatch):
    alpha = SchmidtSpectrum((0.55, 0.25, 0.2))
    beta = SchmidtSpectrum((0.5, 0.3, 0.1, 0.1))
    built = []
    validate = SchmidtSpectrum.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(SchmidtSpectrum, "__post_init__", counting)
    report = optimal_fidelity(alpha, beta)
    assert built == [report.xi]
