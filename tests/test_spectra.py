import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from loccxform import (
    BipartiteState,
    SchmidtSpectrum,
    aligned_fidelity,
    optimal_fidelity,
    pad_to_common,
    parse_state_dict,
    schmidt_spectrum,
    tensor,
    trace_distance_from_fidelity,
)
from loccxform.oracle import _batch_random_unitaries
from loccxform.spectra import NORMALIZATION_ACCEPT, NORMALIZATION_ATOL, pad_pair
from spectrum_reference import reference_spectrum


def spectra_strategy(max_n=5):
    def build(vals):
        arr = np.array(vals)
        arr /= arr.sum()
        arr = np.sort(arr)[::-1]
        return SchmidtSpectrum(tuple(float(x) for x in arr))

    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=max_n
    ).map(build)


# ---------------------------------------------------------------------------
# SchmidtSpectrum construction
# ---------------------------------------------------------------------------


def test_spectrum_keeps_sorted_input_exactly():
    s = SchmidtSpectrum((0.5, 0.3, 0.2))
    assert s.probs.tolist() == [0.5, 0.3, 0.2]
    assert not s.resorted


def test_spectrum_sorts_unsorted_input_and_flags_it():
    s = SchmidtSpectrum((0.2, 0.5, 0.3))
    assert s.probs.tolist() == [0.5, 0.3, 0.2]
    assert s.resorted
    # the flag reports a sort that happened; a caller cannot claim one
    with pytest.raises(TypeError):
        SchmidtSpectrum((0.5, 0.5), resorted=True)


def test_spectrum_renormalizes_small_drift():
    drift = 1e-9
    s = SchmidtSpectrum((0.5 + drift, 0.5))
    assert math.fsum(s.probs) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_rejects_large_drift():
    with pytest.raises(ValueError, match="not normalized"):
        SchmidtSpectrum((0.5, 0.6))


def test_spectrum_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative"):
        SchmidtSpectrum((1.1, -0.1))


NON_FINITE = [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (0.5, 0.5, -math.inf), (1e308, 1e308)]


@pytest.mark.parametrize("probs", NON_FINITE)
def test_spectrum_rejects_non_finite_entries(probs):
    with pytest.raises(ValueError):
        SchmidtSpectrum(probs)


# a tuple, a list, an array and a reversed (non-contiguous) view of an array
INPUT_FORMS = {
    "tuple": tuple,
    "list": list,
    "array": np.array,
    "reversed_view": lambda probs: np.array(probs[::-1])[::-1],
}


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("probs", [(1.1, -0.1), *NON_FINITE])
def test_spectrum_input_forms_reject_the_same_entries(probs, form):
    with pytest.raises(ValueError):
        SchmidtSpectrum(INPUT_FORMS[form](probs))


@pytest.mark.parametrize("probs", [[[0.5, 0.5]], [[0.5], [0.5]], 1.0])
def test_spectrum_rejects_input_that_is_not_a_vector(probs):
    with pytest.raises(ValueError, match="vector"):
        SchmidtSpectrum(probs)


@pytest.mark.parametrize(
    "probs", [(0.5, 0.3, 0.2), (0.2, 0.5, 0.3), (0.5 + 1e-9, 0.5), (0.6, 0.4, -1e-13), (0.3, 0.3, 0.4 + 3e-7)]
)
def test_spectrum_input_forms_give_identical_probs(probs):
    spectra = [SchmidtSpectrum(convert(probs)) for convert in INPUT_FORMS.values()]
    assert len({s.probs.tobytes() for s in spectra}) == 1
    assert len({s.resorted for s in spectra}) == 1
    assert all(s.probs.dtype == np.float64 for s in spectra)


def test_spectrum_copies_its_input_and_is_read_only():
    source = np.array([0.2, 0.5, 0.3])
    s = SchmidtSpectrum(source)
    source[:] = (1.0, 0.0, 0.0)
    assert s.probs.tolist() == [0.5, 0.3, 0.2]
    assert not s.probs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s.probs[0] = 1.0
    # as_array hands out a writable copy
    copy = s.as_array()
    copy[0] = 1.0
    assert s.probs.tolist() == [0.5, 0.3, 0.2]


def test_spectrum_equality_and_hash_follow_the_coefficients():
    a = SchmidtSpectrum((0.5, 0.3, 0.2))
    b = SchmidtSpectrum(np.array([0.2, 0.5, 0.3]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != SchmidtSpectrum((0.5, 0.5))
    assert a != SchmidtSpectrum((0.5, 0.3, 0.2, 0.0))
    assert a != (0.5, 0.3, 0.2)
    # 0.0 and -0.0 are equal coefficients
    signed = SchmidtSpectrum((1.0, -0.0))
    assert signed == SchmidtSpectrum((1.0, 0.0))
    assert hash(signed) == hash(SchmidtSpectrum((1.0, 0.0)))


def test_spectrum_rejects_empty():
    with pytest.raises(ValueError):
        SchmidtSpectrum(())


# Entries that enter a spectrum's tail: zeros of both signs, subnormals, the
# smallest normal, negatives inside and outside NORMALIZATION_ATOL, and
# entries that are not finite or whose sum overflows.
TAIL_ENTRIES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, -1e-13, -2e-12,
                math.nan, math.inf, -math.inf, 1e308]


@st.composite
def drawn_spectra(draw):
    """A Dirichlet spectrum of 1 to 9000 levels, as an array or a list: sorted
    or not, its sum as drawn, scaled off 1 by 1e-13 to 2e-6, or within a few
    ulps of 1 +- NORMALIZATION_ATOL or NORMALIZATION_ACCEPT, with up to three
    entries from TAIL_ENTRIES appended."""
    n = draw(st.integers(1, 9000) | st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.sort(rng.dirichlet(np.full(n, draw(st.sampled_from([0.02, 0.3, 1.0, 10.0])))))[::-1]
    sign = draw(st.sampled_from([-1.0, 1.0]))
    drift = draw(st.sampled_from(["rounded", "scaled", "edge"]))
    if drift == "scaled":
        vals = vals * (1.0 + sign * draw(st.floats(1e-13, 2e-6)))
    elif drift == "edge":
        edge = draw(st.sampled_from([NORMALIZATION_ATOL, NORMALIZATION_ACCEPT]))
        target = 1.0 + sign * edge + draw(st.integers(-4, 4)) * np.finfo(float).eps
        vals[0] += target - math.fsum(vals)
    vals = np.append(vals, draw(st.lists(st.sampled_from(TAIL_ENTRIES), max_size=3)))
    if draw(st.booleans()):
        rng.shuffle(vals)
    return vals if draw(st.booleans()) else vals.tolist()


CONSTRUCTOR_INPUTS = st.one_of(
    drawn_spectra(),
    st.lists(st.integers(-2, 3), min_size=1, max_size=5),
    # a NaN that stops the sort can leave large entries behind a small first one
    st.sampled_from([*NON_FINITE, (0.5, math.nan, *[1e308] * 8), (1.0, -0.0), (-0.0, 1.0),
                     (0.5, -0.0, 0.5), [1], [0, 1], [2, -1]]),
)


@given(CONSTRUCTOR_INPUTS)
@settings(max_examples=400, deadline=None)
def test_spectrum_matches_the_reference_constructor(probs):
    try:
        expected, resorted = reference_spectrum(probs)
    except Exception as exc:  # the constructor raises the same, with the same message
        with pytest.raises(type(exc)) as raised:
            SchmidtSpectrum(probs)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    s = SchmidtSpectrum(probs)
    assert s.probs.tobytes() == expected.tobytes()  # -0.0 keeps its sign
    assert s.resorted == resorted


def test_large_spectra_skip_the_exact_sum(monkeypatch):
    rng = np.random.default_rng(4096)
    dirichlet = np.sort(rng.dirichlet(np.ones(4096)))[::-1]
    source = (np.arange(1, 4097) + 1.0) ** -3.0
    worst_xi = optimal_fidelity(SchmidtSpectrum(source / source.sum()), SchmidtSpectrum.uniform(4096)).xi
    calls = []
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(len(values)) or 1.0)
    SchmidtSpectrum(dirichlet)
    SchmidtSpectrum(worst_xi.probs)
    assert calls == []
    SchmidtSpectrum(dirichlet * (1.0 + 1e-9))  # renormalized: the divisor is the exact sum
    assert calls == [4096]


def test_uniform_and_padding():
    u = SchmidtSpectrum.uniform(4)
    assert u.probs.tolist() == [0.25, 0.25, 0.25, 0.25]
    pair = pad_pair(SchmidtSpectrum((1.0,)), u, size=5)
    assert pair.a.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
    assert pair.b.tolist() == [0.25, 0.25, 0.25, 0.25, 0.0]
    assert SchmidtSpectrum((1.0, 0.0, 0.0)).nonzero_count == 1


# ---------------------------------------------------------------------------
# Schmidt decomposition
# ---------------------------------------------------------------------------


def test_schmidt_spectrum_of_diagonal_bell():
    state = BipartiteState(np.diag([math.sqrt(0.5), math.sqrt(0.5)]))
    assert schmidt_spectrum(state).probs == pytest.approx((0.5, 0.5), abs=1e-14)


def test_schmidt_spectrum_rotated_bell():
    # singular values are invariant under local basis changes
    rng = np.random.default_rng(7)
    bell = np.diag([math.sqrt(0.5), math.sqrt(0.5)])
    u, v = _batch_random_unitaries(1, 2, rng)[0], _batch_random_unitaries(1, 2, rng)[0]
    state = BipartiteState(u @ bell @ v)
    assert schmidt_spectrum(state).probs == pytest.approx((0.5, 0.5), abs=1e-12)


def test_schmidt_spectrum_constructed_singular_values():
    # build a matrix with known singular values and round-trip them
    rng = np.random.default_rng(11)
    target = (0.9, 0.1)
    core = np.diag(np.sqrt(np.array(target)))
    u, v = _batch_random_unitaries(1, 2, rng)[0], _batch_random_unitaries(1, 2, rng)[0]
    state = BipartiteState(u @ core @ v)
    assert schmidt_spectrum(state).probs == pytest.approx(target, abs=1e-12)


def test_schmidt_spectrum_invariance_many_rotations():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        state = random_state(rng, n)
        reference = schmidt_spectrum(state).probs
        u, v = _batch_random_unitaries(1, n, rng)[0], _batch_random_unitaries(1, n, rng)[0]
        rotated = BipartiteState(u @ state.amplitudes @ v)
        assert schmidt_spectrum(rotated).probs == pytest.approx(reference, abs=1e-10)


def test_bipartite_state_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        BipartiteState(np.ones((2, 3)) / math.sqrt(6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_bipartite_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="finite"):
        BipartiteState(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_bipartite_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        BipartiteState(np.eye(2))


def test_bipartite_state_dims_is_derived():
    m = np.eye(3) / math.sqrt(3)
    assert BipartiteState(m).dims == 3
    with pytest.raises(TypeError):
        BipartiteState(m, dims=7)


# ---------------------------------------------------------------------------
# Tail sums (the entanglement monotones)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "probs,expected",
    [
        ((0.5, 0.3, 0.2), (1.0, 0.5, 0.2)),
        ((1.0,), (1.0,)),
        ((0.25, 0.25, 0.25, 0.25), (1.0, 0.75, 0.5, 0.25)),
    ],
)
def test_monotones_examples(probs, expected):
    s = SchmidtSpectrum(probs)
    assert tuple(pad_pair(s, s).ta) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Aligned fidelity
# ---------------------------------------------------------------------------


def test_aligned_fidelity_identical_is_one():
    s = SchmidtSpectrum((0.6, 0.3, 0.1))
    assert aligned_fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_aligned_fidelity_product_vs_bell():
    f = aligned_fidelity(SchmidtSpectrum((1.0, 0.0)), SchmidtSpectrum((0.5, 0.5)))
    assert f == pytest.approx(0.5, abs=1e-14)


def test_aligned_fidelity_half_plus_ab():
    # overlap of (a^2, b^2) with the balanced state is 1/2 + ab
    f = aligned_fidelity(SchmidtSpectrum((0.8, 0.2)), SchmidtSpectrum((0.5, 0.5)))
    assert f == pytest.approx(0.5 + math.sqrt(0.8 * 0.2), abs=1e-14)
    assert f == pytest.approx(0.9, abs=1e-14)


def test_aligned_fidelity_pads_unequal_lengths():
    a = SchmidtSpectrum((0.7, 0.3))
    b = SchmidtSpectrum((0.6, 0.3, 0.1))
    direct = (
        math.sqrt(0.7 * 0.6) + math.sqrt(0.3 * 0.3) + math.sqrt(0.0 * 0.1)
    ) ** 2
    assert aligned_fidelity(a, b) == pytest.approx(direct, abs=1e-14)


@given(spectra_strategy(), spectra_strategy())
@settings(max_examples=100)
def test_aligned_fidelity_symmetric(a, b):
    assert aligned_fidelity(a, b) == pytest.approx(aligned_fidelity(b, a), abs=1e-12)


@given(spectra_strategy())
@settings(max_examples=100)
def test_aligned_fidelity_one_only_for_equal(s):
    assert aligned_fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
    # a genuinely different multiset loses overlap quadratically in the shift
    if len(s) > 1 and s.probs[0] - s.probs[-1] > 1e-3:
        shifted = list(s.probs)
        delta = (shifted[0] - shifted[-1]) / 3
        shifted[0] -= delta
        shifted[-1] += delta
        other = SchmidtSpectrum(tuple(shifted))
        assert aligned_fidelity(s, other) < 1.0 - 1e-9


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------


def test_tensor_with_product_state_is_identity():
    b = SchmidtSpectrum((0.6, 0.3, 0.1))
    assert tensor(SchmidtSpectrum((1.0,)), b).probs == pytest.approx(b.probs)


def test_tensor_bell_bell():
    bell = SchmidtSpectrum((0.5, 0.5))
    assert tensor(bell, bell).probs == pytest.approx((0.25,) * 4)


def test_tensor_matches_enumeration_oracle():
    a = SchmidtSpectrum((0.6, 0.4))
    b = SchmidtSpectrum((0.7, 0.3))
    expected = sorted((x * y for x in a.probs for y in b.probs), reverse=True)
    result = tensor(a, b)
    assert len(result) == len(a) * len(b)
    assert result.probs == pytest.approx(tuple(expected), abs=1e-15)
    assert result.probs == pytest.approx((0.42, 0.28, 0.18, 0.12), abs=1e-15)


@given(spectra_strategy(max_n=4), spectra_strategy(max_n=4))
@settings(max_examples=60)
def test_tensor_commutative_and_normalized(a, b):
    ab, ba = tensor(a, b), tensor(b, a)
    assert ab.probs == pytest.approx(ba.probs, abs=1e-12)
    assert math.fsum(ab.probs) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Trace distance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f,expected", [(1.0, 0.0), (0.0, 2.0), (0.75, 1.0)])
def test_trace_distance_examples(f, expected):
    assert trace_distance_from_fidelity(f) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("f", [-0.001, 1.001, math.nan, math.inf, -math.inf])
def test_trace_distance_range_errors(f):
    with pytest.raises(ValueError, match="range"):
        trace_distance_from_fidelity(f)


# ---------------------------------------------------------------------------
# JSON state encoding
# ---------------------------------------------------------------------------


def test_parse_state_dict_schmidt():
    parsed = parse_state_dict({"schmidt": [0.5, 0.5]})
    assert isinstance(parsed, SchmidtSpectrum)
    assert parsed.probs.tolist() == [0.5, 0.5]


def test_parse_state_dict_amplitudes():
    r = math.sqrt(0.5)
    parsed = parse_state_dict({"amplitudes": [[[r, 0.0], [0.0, 0.0]], [[0.0, 0.0], [r, 0.0]]]})
    assert isinstance(parsed, BipartiteState)
    assert schmidt_spectrum(parsed).probs == pytest.approx((0.5, 0.5), abs=1e-14)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"schmidt": [0.5, 0.5], "amplitudes": [[[1.0, 0.0]]]},
        {"schmidt": []},
        {"amplitudes": [[0.5, 0.5]]},
        [0.5, 0.5],
    ],
)
def test_parse_state_dict_rejects_bad_shapes(obj):
    with pytest.raises(ValueError):
        parse_state_dict(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"schmidt": [True, False]},
        {"schmidt": [1, False]},
        {"schmidt": ["0.5", "0.5"]},
        {"schmidt": [None, 1.0]},
        {"schmidt": [{}, 1.0]},
        {"schmidt": [10**400, 1.0]},
        {"amplitudes": [[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        {"amplitudes": [[["0.7", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]]},
        {"amplitudes": [[[1.0, 0.0, 0.0]]]},
        {"amplitudes": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
        {"amplitudes": [[{"re": 1.0, "im": 0.0}]]},
        {"amplitudes": [[[10**400, 0.0]]]},
    ],
)
def test_parse_state_dict_rejects_non_numbers(obj):
    with pytest.raises(ValueError):
        parse_state_dict(obj)


@pytest.mark.parametrize(
    "text",
    [
        '{"schmidt": [NaN, 1]}',
        '{"schmidt": [Infinity, 0.5]}',
        '{"schmidt": [0.5, -Infinity]}',
        '{"amplitudes": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        '{"amplitudes": [[[Infinity, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    ],
)
def test_parse_state_dict_rejects_json_non_finite_literals(text):
    with pytest.raises(ValueError):
        parse_state_dict(json.loads(text))


def test_parse_state_dict_amplitudes_are_exact():
    entries = [[[0.6, -0.1], [0.0, 0.2]], [[0.3, 0.0], [-0.5, 0.49]]]
    norm = math.sqrt(sum(re * re + im * im for row in entries for re, im in row))
    rows = [[[re / norm, im / norm] for re, im in row] for row in entries]
    parsed = parse_state_dict({"amplitudes": rows})
    want = np.array([[complex(re, im) for re, im in row] for row in rows])
    assert np.array_equal(parsed.amplitudes, want / np.linalg.norm(want))


def test_pad_to_common():
    a, b = pad_to_common(SchmidtSpectrum((1.0,)), SchmidtSpectrum((0.5, 0.5)))
    assert a.probs.tolist() == [1.0, 0.0]
    assert b.probs.tolist() == [0.5, 0.5]
