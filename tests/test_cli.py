import csv
import io
import json
import math
import os
import re
import shlex
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import spectra
from loccxform import (
    BipartiteState,
    SchmidtSpectrum,
    aligned_fidelity,
    concentration_fidelity,
    nonlocal_trace_distance,
    optimal_fidelity,
    robustness_interval,
    robustness_of_entanglement,
    schmidt_spectrum,
    teleportation_fidelity,
)
from loccxform import applications, cli
from loccxform.cli import emit_csv, main, parse_state_spec, report_to_dict
from loccxform.oracle import GridSpec, grid_fidelity_floor

PSI = '{"schmidt":[0.8,0.2]}'
PHI = '{"schmidt":[0.5,0.5]}'
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", PSI, PHI)
    assert code == 0
    assert "f_opt" in out and "0.9" in out
    assert "p_conclusive" in out and "0.4" in out


def test_report_json_values(capsys):
    code, out, _ = run(capsys, "report", PSI, PHI, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_opt"] == pytest.approx(0.9, abs=1e-12)
    assert payload["xi"] == pytest.approx([0.8, 0.2], abs=1e-12)
    assert payload["p_conclusive"] == pytest.approx(0.4, abs=1e-12)
    assert payload["deterministic"] is False
    assert [seg["l"] for seg in payload["segments"]] == [2, 1]
    assert {"l", "r", "A", "B"} == set(payload["segments"][0])


def test_report_identical_inputs(capsys):
    code, out, _ = run(capsys, "report", PHI, PHI, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["f_opt"] == 1.0
    assert payload["deterministic"] is True
    assert payload["trace_distance"] == 0.0


def test_report_json_round_trips(capsys):
    code, out, _ = run(capsys, "report", PSI, PHI, "--format", "json")
    assert code == 0
    emitted = json.loads(out)
    recomputed = report_to_dict(
        optimal_fidelity(SchmidtSpectrum((0.8, 0.2)), SchmidtSpectrum((0.5, 0.5)))
    )
    for key in ("f_opt", "trace_distance", "p_conclusive"):
        assert emitted[key] == pytest.approx(recomputed[key], abs=1e-12)
    assert emitted["xi"] == pytest.approx(recomputed["xi"], abs=1e-12)
    for got, want in zip(emitted["segments"], recomputed["segments"]):
        for key in ("r", "A", "B"):
            assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_report_accepts_long_inline_amplitudes(capsys):
    # a 3x3 matrix at full precision is longer than a file name may be
    rng = np.random.default_rng(12)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m /= np.linalg.norm(m)
    rows = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    arg = json.dumps({"amplitudes": rows}, separators=(",", ":"))
    assert 255 < len(arg) <= 420
    code, out, err = run(capsys, "report", arg, PHI, "--format", "json")
    assert code == 0, err
    want = optimal_fidelity(schmidt_spectrum(BipartiteState(m)), SchmidtSpectrum((0.5, 0.5)))
    assert json.loads(out)["f_opt"] == pytest.approx(want.f_opt, abs=1e-12)


@pytest.mark.parametrize(
    "psi",
    [
        '{"schmidt":[NaN,1]}',
        '{"schmidt":[Infinity,0]}',
        '{"schmidt":[true,false]}',
        '{"amplitudes":[[[NaN,0],[0,0]],[[0,0],[1,0]]]}',
    ],
)
def test_report_rejects_non_finite_and_boolean_input(capsys, psi):
    code, out, err = run(capsys, "report", psi, PHI)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("psi", ['{"amplitudes":[]}', '{"amplitudes":5}'])
def test_report_rejects_amplitudes_that_are_not_a_matrix(capsys, psi):
    assert run(capsys, "report", psi, PHI) == (2, "", 'error: "amplitudes" must be a non-empty matrix\n')


def test_report_with_noise_bounds(capsys):
    code, out, _ = run(capsys, "report", PSI, PHI, "--epsilon", "0.2", "--format", "json")
    payload = json.loads(out)
    t_opt = 2 * math.sqrt(0.1)
    assert payload["noisy_trace_distance_bounds"] == pytest.approx(
        [t_opt - 0.2, t_opt + 0.2], abs=1e-9
    )
    alpha, beta = parse_state_spec(PSI), parse_state_spec(PHI)
    assert payload["noisy_trace_distance_bounds"] == list(robustness_interval(alpha, beta, 0.2))


def test_report_and_nl_dist_compute_each_answer_once(capsys, monkeypatch):
    reports, fidelities = [], []
    real_fidelity = applications.fidelity_verdict
    monkeypatch.setattr(cli, "optimal_fidelity", lambda a, b: reports.append(1) or optimal_fidelity(a, b))
    monkeypatch.setattr(
        applications, "fidelity_verdict", lambda a, b: fidelities.append(1) or real_fidelity(a, b)
    )
    assert run(capsys, "report", PSI, PHI, "--epsilon", "0.05")[0] == 0
    assert (len(reports), len(fidelities)) == (1, 0)
    assert run(capsys, "nl-dist", PSI, PHI)[0] == 0
    assert (len(reports), len(fidelities)) == (1, 2)  # one per direction


@pytest.mark.parametrize(
    ("state", "message"),
    [
        ('{"amplitudes":[[[1e200,0]]]}', "state not normalized: |amplitudes| = 1e+200"),
        ('{"schmidt":[1e308,1e308]}', "spectrum not normalized: sum = 2e+308"),
    ],
    ids=["norm", "sum"],
)
def test_report_says_a_finite_input_past_the_float_range_is_not_normalized(capsys, state, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "report", state, '{"schmidt":[1]}')
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not caught and "Warning" not in err


def test_report_rejects_unnormalized(capsys):
    code, _, err = run(capsys, "report", '{"schmidt":[0.5,0.6]}', PHI)
    assert code == 2
    assert "not normalized" in err


def test_report_rejects_malformed_json(capsys):
    # the second input nests deeper than json.loads can recurse on any
    # supported Python (3.12 decodes 5000 levels; 100 000 exceeds its limit);
    # the third is an integer past the decoder's 4300-digit limit
    deep = 100_000
    for psi in (
        '{"schmidt": oops',
        '{"schmidt":' + "[" * deep + "1" + "]" * deep + "}",
        '{"schmidt":[' + "1" * 5000 + "]}",
    ):
        code, _, err = run(capsys, "report", psi, PHI)
        assert code == 2
        assert err.startswith("error: malformed state JSON: ")


def test_missing_state_file_is_an_io_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "psi.json")
    code, out, err = run(capsys, "report", missing, '{"schmidt":[1]}')
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error:") and missing in err


@pytest.mark.parametrize("psi", ["[0.5,0.5]", "null", "5", '"x"'])
def test_inline_json_that_is_not_an_object_is_a_validation_error(tmp_path, monkeypatch, capsys, psi):
    monkeypatch.chdir(tmp_path)  # no file of any of these names
    code, out, err = run(capsys, "report", psi, '{"schmidt":[1]}')
    assert code == 2
    assert out == ""
    assert err == "error: state must be a JSON object\n"


def test_missing_relative_state_file_that_is_not_json_is_an_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "report", "nofile.json", '{"schmidt":[1]}')
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error:") and "'nofile.json'" in err


def test_inline_state_with_leading_whitespace(capsys):
    code, out, _ = run(capsys, "report", "\n  " + PSI, PHI, "--format", "json")
    assert code == 0
    assert json.loads(out)["f_opt"] == pytest.approx(0.9, abs=1e-12)


def test_state_file_input(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text(PSI, encoding="utf-8")
    code, out, _ = run(capsys, "report", str(path), PHI, "--format", "json")
    assert code == 0
    assert json.loads(out)["f_opt"] == pytest.approx(0.9, abs=1e-12)


def test_resorted_input_warns(capsys):
    code, _, err = run(capsys, "report", '{"schmidt":[0.2,0.8]}', PHI)
    assert code == 0
    assert "sorted" in err


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def test_schmidt_from_amplitudes(capsys):
    r = math.sqrt(0.5)
    state = json.dumps({"amplitudes": [[[r, 0.0], [0.0, 0.0]], [[0.0, 0.0], [r, 0.0]]]})
    code, out, _ = run(capsys, "schmidt", state, "--format", "json")
    assert code == 0
    assert json.loads(out)["schmidt"] == pytest.approx([0.5, 0.5], abs=1e-12)


# a 2 x 3 amplitude matrix with Schmidt coefficients 0.64 and 0.36
RECTANGULAR = '{"amplitudes":[[[0.6,0],[0,0],[0,0]],[[0,0],[0.8,0],[0,0]]]}'


def test_rectangular_amplitudes_are_accepted(capsys):
    code, out, err = run(capsys, "schmidt", RECTANGULAR)
    assert (code, out, err) == (0, "schmidt            0.64, 0.36\n", "")
    code, out, _ = run(capsys, "report", RECTANGULAR, PHI, "--format", "json")
    assert code == 0
    assert json.loads(out)["f_opt"] == pytest.approx(0.98, abs=1e-12)
    code, out, _ = run(capsys, "verify", RECTANGULAR, PHI, "--seed", "1")
    assert code == 0
    assert out.count("[PASS]") == 3


def test_teleport_values(capsys):
    code, out, _ = run(capsys, "teleport", '{"schmidt":[0.5,0.3,0.2]}', "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["teleportation_fidelity"] == pytest.approx(0.97424, abs=1e-4)
    assert payload["robustness"] == pytest.approx(1.89695, abs=1e-4)


def test_teleport_at_a_given_dimension(capsys):
    alpha = SchmidtSpectrum((0.5, 0.3, 0.2))
    code, out, _ = run(capsys, "teleport", '{"schmidt":[0.5,0.3,0.2]}', "--dim", "4")
    assert code == 0
    assert out.splitlines()[0].split() == ["dimension", "4"]
    code, out, _ = run(capsys, "teleport", '{"schmidt":[0.5,0.3,0.2]}', "--dim", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "dimension": 4,
        "concentration_fidelity": concentration_fidelity(alpha, 4),
        "robustness": robustness_of_entanglement(alpha, 4),
        "teleportation_fidelity": teleportation_fidelity(alpha, 4),
    }


def test_teleport_rejects_a_dimension_below_the_support(capsys):
    code, out, err = run(capsys, "teleport", '{"schmidt":[0.5,0.3,0.2]}', "--dim", "1")
    assert code == 2
    assert out == ""
    assert err == "error: dimension 1 below the 3 nonzero coefficients\n"


def test_teleport_rejects_a_dimension_past_the_float_range(capsys):
    dim = "1" + "0" * 400
    code, out, err = run(capsys, "teleport", '{"schmidt":[0.5,0.5]}', "--dim", dim)
    assert (code, out, err) == (2, "", f"error: dimension of {int(dim).bit_length()} bits past the float range\n")


def test_dilute(capsys):
    code, out, _ = run(capsys, "dilute", "2", '{"schmidt":[0.6,0.3,0.1]}', "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["f_opt"] == pytest.approx(0.9, abs=1e-12)
    assert payload["xi"] == pytest.approx([2 / 3, 1 / 3, 0.0], abs=1e-12)


def test_catalyze_with_noise_threshold(capsys):
    code, out, _ = run(
        capsys,
        "catalyze",
        '{"schmidt":[0.4,0.4,0.1,0.1]}',
        '{"schmidt":[0.5,0.25,0.25,0]}',
        '{"schmidt":[0.6,0.4]}',
        "--epsilon",
        "0.05",
        "--format",
        "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["convertible_bare"] is False
    assert payload["convertible_with_catalyst"] is True
    assert payload["delta_T"] > 0.1
    assert "noise_threshold" not in payload
    assert payload["gain_survives_noise"] is True


@pytest.mark.parametrize("epsilon", ["nan", "-0.1", "2.5"])
def test_catalyze_rejects_noise_out_of_range(capsys, epsilon):
    code, out, err = run(
        capsys,
        "catalyze",
        '{"schmidt":[0.4,0.4,0.1,0.1]}',
        '{"schmidt":[0.5,0.25,0.25,0]}',
        '{"schmidt":[0.6,0.4]}',
        "--epsilon",
        epsilon,
    )
    assert code == 2
    assert out == ""
    assert "range" in err


def test_nl_dist(capsys):
    code, out, _ = run(capsys, "nl-dist", '{"schmidt":[1,0]}', PHI, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["nonlocal_fidelity"] == pytest.approx(0.5, abs=1e-12)
    assert payload["nonlocal_trace_distance"] == pytest.approx(math.sqrt(2), abs=1e-12)
    alpha, beta = parse_state_spec('{"schmidt":[1,0]}'), parse_state_spec(PHI)
    assert payload["nonlocal_trace_distance"] == nonlocal_trace_distance(alpha, beta)


# 2 sqrt(1 - F) of the normalised blocks of this pair's binary inputs, to 50 digits
NEAR_SOURCE, NEAR_TARGET = '{"schmidt":[0.6,0.4]}', '{"schmidt":[0.5999999,0.4000001]}'
NEAR_DISTANCE = 2.0412414093989143820262847368765573303388211203616e-7


@pytest.mark.parametrize(
    ("argv", "keys"),
    [
        (["report", NEAR_SOURCE, NEAR_TARGET], ["trace_distance"]),
        (["nl-dist", NEAR_SOURCE, NEAR_TARGET], ["nonlocal_trace_distance"]),
        (["catalyze", NEAR_SOURCE, NEAR_TARGET, PHI], ["trace_distance_bare", "trace_distance_catalyzed"]),
    ],
    ids=["report", "nl-dist", "catalyze"],
)
def test_a_target_near_the_source_prints_its_distance(capsys, argv, keys):
    # f within 1e-12 of 1 once read as 1, and each of these distances as 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    for key in keys:
        assert payload[key] == pytest.approx(NEAR_DISTANCE, rel=1e-9, abs=0.0)


def test_verify_passes_and_reports(capsys):
    code, out, _ = run(
        capsys,
        "verify", PSI, PHI,
        "--seed", "11",
        "--trials", "200",
        "--ensembles", "50",
        "--format", "json",
    )
    assert code == 0
    checks = json.loads(out)
    assert len(checks) == 3
    keys = {"claim", "theorem_value", "oracle_value", "gap", "pass"}
    assert [set(check) for check in checks] == [keys | {"grid_step"}, keys, keys]
    assert checks[0]["grid_step"] == 0.01
    for check in checks:
        assert check["pass"] is True


def test_verify_holds_the_grid_to_the_step_it_searched(capsys):
    # 1/step is not an integer: the grid is laid at 1/round(1/step).  Uniform
    # into uniform on 12 levels has f_opt = 1; at step 0.5 the grid's best is
    # (1/2, 1/2, 0, ...) with fidelity 1/6, a gap of 5/6.  The grid's floor
    # subtracts the step searched from each coefficient of xi = (1/12, ...),
    # which leaves 0, so the gap passes.
    uniform = json.dumps({"schmidt": [1 / 12] * 12})
    argv = ["verify", uniform, uniform, "--seed", "0", "--trials", "50", "--ensembles", "20"]
    code, out, _ = run(capsys, *argv, "--grid-step", "0.4", "--format", "json")
    grid = json.loads(out)[0]
    assert grid["grid_step"] == 0.5
    assert grid["gap"] == pytest.approx(5 / 6, abs=1e-12)
    assert grid["pass"] is True
    assert code == 0
    code, out, _ = run(capsys, *argv, "--grid-step", "0.7")
    assert out.splitlines()[0].startswith("[PASS] grid search")
    assert out.splitlines()[0].endswith(" step=1")
    assert code == 0


def test_verify_floors_the_grid_at_the_step_it_searched(capsys, monkeypatch):
    # (0.9, 0.1) into (0.5, 0.5) has xi = alpha.  At --grid-step 0.4 the grid
    # is laid at h = 1/round(2.5) = 0.5, so the floor is 0.5 * (0.9 - 0.5) =
    # 0.2; at h = 0.4 it would be 0.25.  A grid value of 0.22 lies between.
    alpha, beta = SchmidtSpectrum((0.9, 0.1)), SchmidtSpectrum((0.5, 0.5))
    xi = optimal_fidelity(alpha, beta).xi
    assert grid_fidelity_floor(xi, beta, GridSpec(2, 0.4)) == pytest.approx(0.2, abs=1e-15)
    monkeypatch.setattr(cli, "grid_max_fidelity", lambda alpha, beta, grid: 0.22)
    argv = ["verify", '{"schmidt":[0.9,0.1]}', '{"schmidt":[0.5,0.5]}', "--seed", "0"]
    code, out, _ = run(capsys, *argv, "--grid-step", "0.4", "--format", "json")
    grid = json.loads(out)[0]
    assert grid["grid_step"] == 0.5
    assert grid["pass"] is True
    assert code == 0


def test_verify_pads_unequal_lengths(capsys):
    code, out, _ = run(
        capsys,
        "verify", '{"schmidt":[1,0]}', '{"schmidt":[0.6,0.3,0.1]}',
        "--seed", "3",
        "--trials", "100",
        "--ensembles", "20",
        "--format", "json",
    )
    assert code == 0
    assert all(check["pass"] for check in json.loads(out))


# xi = alpha: the grid must round 0.9901 up to 1, so its best is 0.5 and the
# gap is ten steps; the floor (sqrt(0.5 * (0.9901 - 0.01)))**2 = 0.49005 holds
FLOOR_PAIR = ["verify", '{"schmidt":[0.9901,0.0099]}', '{"schmidt":[0.5,0.5]}', "--seed", "0"]


def test_verify_passes_a_grid_gap_of_many_steps_above_its_floor(capsys):
    code, out, _ = run(capsys, *FLOOR_PAIR, "--format", "json")
    grid = json.loads(out)[0]
    assert grid["oracle_value"] == pytest.approx(0.5, abs=1e-12)
    assert grid["gap"] == pytest.approx(0.0990049998737, abs=1e-12)
    assert grid["pass"] is True
    assert code == 0


def test_verify_fails_a_grid_value_below_its_floor(capsys, monkeypatch):
    monkeypatch.setattr(cli, "grid_max_fidelity", lambda alpha, beta, grid: 0.48)
    code, out, _ = run(capsys, *FLOOR_PAIR)
    assert out.splitlines()[0].startswith("[FAIL] grid search")
    assert code == 4


@pytest.mark.parametrize(
    "mutate",
    [lambda r: replace(r, f_opt=1.0), lambda r: replace(r, f_opt=r.f_opt * 1.05),
     lambda r: replace(r, f_opt=1.0, xi=SchmidtSpectrum((0.5, 0.5)))],
    ids=["f_opt=1", "f_opt*1.05", "xi=beta"],
)
def test_verify_fails_an_inflated_f_opt(capsys, monkeypatch, mutate):
    # (0.6, 0.4) into (0.5, 0.5): xi = alpha, f_opt = 0.9899 and the grid
    # finds it.  Each mutant's grid floor still holds; the check fails it
    # because xi must dominate alpha and f_opt be xi's own fidelity.
    monkeypatch.setattr(cli, "optimal_fidelity", lambda alpha, beta: mutate(optimal_fidelity(alpha, beta)))
    code, out, _ = run(capsys, "verify", '{"schmidt":[0.6,0.4]}', '{"schmidt":[0.5,0.5]}', "--seed", "0")
    assert out.splitlines()[0].startswith("[FAIL] grid search")
    assert code == 4


def test_verify_fails_an_f_opt_a_feasible_ensemble_beats(capsys, monkeypatch):
    # (0.5, 0.3, 0.2) into (0.4, 0.4, 0.2): f_opt exceeds the aligned
    # fidelity by 0.0026, so the do-nothing ensemble stays below an f_opt
    # moved halfway down to it.  At seed 1 one of the 200 sampled ensembles
    # lies above that midpoint, and the record must fail.
    def lowered(alpha, beta):
        report = optimal_fidelity(alpha, beta)
        return replace(report, f_opt=(report.f_opt + aligned_fidelity(alpha, beta)) / 2)

    monkeypatch.setattr(cli, "optimal_fidelity", lowered)
    argv = ["verify", '{"schmidt":[0.5,0.3,0.2]}', '{"schmidt":[0.4,0.4,0.2]}', "--seed", "1"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    ensemble = json.loads(out)[2]
    assert ensemble["oracle_value"] > ensemble["theorem_value"] + 1e-4
    assert ensemble["pass"] is False
    assert code == 4


@pytest.mark.parametrize(
    ("offset", "passes"),
    [(1e-6, False), (0.5e-9, False), (-1e-6, False), (0.5e-10, True)],
    ids=["above-the-slack", "above-the-slack-by-5e-10", "aligning-pair-unscored", "within-the-slack"],
)
def test_verify_judges_the_sampled_overlap_against_the_aligned_fidelity(capsys, monkeypatch, offset, passes):
    # The aligning pair attains the aligned fidelity, so the sampled maximum
    # must equal it within ORACLE_TOL: above by more breaks the bound, and
    # below by more means the aligning pair was not scored.
    aligned = aligned_fidelity(SchmidtSpectrum((0.8, 0.2)), SchmidtSpectrum((0.5, 0.5)))
    monkeypatch.setattr(cli, "sample_unitary_overlap", lambda tau, omega, trials, seed: aligned + offset)
    code, out, _ = run(capsys, "verify", PSI, PHI, "--seed", "0")
    assert out.splitlines()[1].startswith("[PASS] sampled" if passes else "[FAIL] sampled")
    assert code == (0 if passes else 4)


@pytest.mark.parametrize("step", ["5e-324", "1e-300"])
def test_verify_rejects_a_grid_step_too_fine_for_int64(capsys, step):
    argv = ["verify", '{"schmidt":[1]}', '{"schmidt":[1]}', "--seed", "1", "--grid-step", step]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: grid step too fine for an int64 resolution: {float(step)!r}\n"


def test_verify_over_the_grid_budget_exits_2(capsys, monkeypatch):
    # GridBudgetError is a ValueError, so main's one validation clause maps it
    monkeypatch.setenv("LOCCXFORM_BUDGET", "3")
    code, out, err = run(capsys, "verify", PSI, PHI, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: at least 51 grid points exceed the budget of 3\n"


@pytest.mark.parametrize(("flag", "what"), [("--trials", "trials"), ("--ensembles", "ensembles")])
def test_verify_over_the_sample_budget_exits_2(capsys, monkeypatch, flag, what):
    # the grid's 51 points fit a budget of 100; the samplers' counts count against it too
    monkeypatch.setenv("LOCCXFORM_BUDGET", "100")
    argv = ["verify", PSI, PHI, "--seed", "1", "--trials", "100", "--ensembles", "100"]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, flag, "101")
    assert (code, out, err) == (2, "", f"error: 101 {what} exceed the budget of 100\n")


def test_verify_refuses_a_grid_whose_count_is_too_long_to_print(capsys, monkeypatch):
    # the grid's lower bound has about 12 850 digits: the refusal gives its bit length
    monkeypatch.delenv("LOCCXFORM_BUDGET", raising=False)
    uniform = json.dumps({"schmidt": [0.001] * 1000})
    code, out, err = run(capsys, "verify", uniform, uniform, "--seed", "1", "--grid-step", "1e-18")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: at least a \d+-bit number of grid points exceed the budget of 10000000\n", err)


def test_verify_refuses_a_budget_past_the_int_digit_limit_by_name(capsys, monkeypatch):
    monkeypatch.setenv("LOCCXFORM_BUDGET", "1" * 5000)
    code, out, err = run(capsys, "verify", PSI, PHI, "--seed", "1")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: LOCCXFORM_BUDGET has 5000 digits, [^\n]*\n", err)


@pytest.mark.parametrize(
    "flag,value",
    [("--seed", "-1"), ("--trials", "0"), ("--ensembles", "0"), ("--grid-step", "0"),
     ("--grid-step", "1.5"), ("--grid-step", "nan")],
)
def test_verify_rejects_bad_flag_values(capsys, monkeypatch, flag, value):
    def never(*args):
        raise AssertionError("a bad flag must be refused before any work")

    for name in ("optimal_fidelity", "grid_max_fidelity", "sample_unitary_overlap",
                 "sample_feasible_ensembles"):
        monkeypatch.setattr(cli, name, never)
    argv = ["verify", PSI, PHI, "--seed", "1", flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    if flag == "--grid-step":  # GridSpec owns the step's range
        assert err == f"error: grid step out of range (0, 1]: {float(value)!r}\n"
    else:
        kind = "non-negative" if flag == "--seed" else "positive"
        assert err == f"error: {flag} must be a {kind} integer: {value}\n"


def test_verify_requires_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", PSI, PHI])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# sweep / emit_csv
# ---------------------------------------------------------------------------


def test_sweep_matches_closed_form(capsys):
    code, out, _ = run(capsys, "sweep", "--start", "0.1", "--stop", "0.5", "--steps", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    for row in rows:
        b2 = float(row["b2"])
        expected = 0.5 + math.sqrt(b2 * (1 - b2))
        assert float(row["f_opt"]) == pytest.approx(expected, abs=1e-9)


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--steps", "3", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "b2,f_opt,p_conclusive,trace_distance"
    assert len(text.splitlines()) == 4


def test_sweep_unwritable_path(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 3
    assert "i/o" in err


def test_sweep_range_validation(capsys):
    code, _, err = run(capsys, "sweep", "--start", "0.9", "--stop", "0.1")
    assert code == 2


def test_sweep_steps_count_against_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("LOCCXFORM_BUDGET", "100")
    assert run(capsys, "sweep", "--steps", "100")[0] == 0
    for steps in ("101", str(2**63), "1" + "0" * 400):
        code, out, err = run(capsys, "sweep", "--steps", steps)
        assert (code, out, err) == (2, "", f"error: {steps} steps exceed the budget of 100\n")


def test_sweep_writes_each_row_as_it_is_computed(monkeypatch):
    out, lines = io.StringIO(), []

    def counted(alpha, beta):
        lines.append(out.getvalue().count("\n"))
        return optimal_fidelity(alpha, beta)

    monkeypatch.setattr(cli, "optimal_fidelity", counted)
    with redirect_stdout(out):
        assert main(["sweep", "--steps", "4"]) == 0
    # the header, then one row per report already computed
    assert lines == [1, 2, 3, 4]


def test_emit_csv_header_only():
    out = io.StringIO()
    emit_csv(("a", "b"), [], out)
    assert out.getvalue() == "a,b\r\n"


def test_emit_csv_single_row():
    out = io.StringIO()
    emit_csv(("x", "y"), [(0.1, 1.0 / 3.0)], out)
    assert out.getvalue().splitlines() == ["x,y", "0.1,0.333333333333"]


# ---------------------------------------------------------------------------
# state spec parsing
# ---------------------------------------------------------------------------


def test_parse_state_spec_label(capsys):
    spectrum = parse_state_spec('{"schmidt":[0.2,0.8],"label":"psi"}')
    assert spectrum.probs.tolist() == [0.8, 0.2]
    assert capsys.readouterr().err == "warning: psi spectrum was not sorted; sorted it\n"
    parse_state_spec('{"schmidt":[0.5,0.5],"label":"bell"}')
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(("label", "shown"), [("a\nb", "'a\\nb'"), ("x\u2028", "'x\\u2028'"), (["p"], "['p']")])
def test_a_label_prints_on_one_line(capsys, label, shown):
    parse_state_spec(json.dumps({"schmidt": [0.2, 0.8], "label": label}))
    assert capsys.readouterr().err == f"warning: {shown} spectrum was not sorted; sorted it\n"


def test_parse_state_spec_amplitudes_give_the_spectrum(capsys):
    r = math.sqrt(0.5)
    text = json.dumps({"amplitudes": [[[0.0, 0.0], [r, 0.0]], [[r, 0.0], [0.0, 0.0]]]})
    spectrum = parse_state_spec(text)
    assert isinstance(spectrum, SchmidtSpectrum)
    assert spectrum.probs == pytest.approx((0.5, 0.5), abs=1e-14)
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------


def readme_cli_examples() -> list[list[str]]:
    """Arguments of each `loccxform ...` line in the README's CLI block."""
    text = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("loccxform ")]


def test_readme_has_an_example_of_every_subcommand():
    commands = {argv[0] for argv in readme_cli_examples()}
    assert commands == {"report", "schmidt", "teleport", "dilute", "catalyze", "nl-dist", "verify", "sweep"}


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_example_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert code == 0, capsys.readouterr().err


# ---------------------------------------------------------------------------
# every subcommand, in process, on valid and malformed input
# ---------------------------------------------------------------------------

NUMBER_JUNK = st.one_of(
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
    st.sampled_from([5e-324, 1e-310, 1e308, -1e308, math.nan, math.inf, 10**400, -(10**400)]),
)
JSON_JUNK = st.recursive(  # nested and ragged lists of anything a JSON value holds
    st.none() | st.booleans() | st.text(max_size=4) | NUMBER_JUNK,
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)
# amplitude matrices with ragged rows and entries of 1 to 3 numbers
AMPLITUDE_JUNK = st.lists(st.lists(st.lists(NUMBER_JUNK, min_size=1, max_size=3), max_size=3), max_size=3)
KEYS = st.sampled_from(["schmidt", "amplitudes", "label", "extra"])


@st.composite
def state_args(draw) -> str:
    """A state argument: a spectrum of up to 6 levels from the shared generator,
    as "schmidt" in any order or as diagonal "amplitudes", or JSON-like junk,
    with missing and extra keys."""
    kind = draw(st.sampled_from(["schmidt", "schmidt", "amplitudes", "junk object", "junk"]))
    if kind == "junk":
        # argparse reads an argument that starts with "-" as an option
        return draw(st.builds(json.dumps, JSON_JUNK).filter(lambda text: not text.startswith("-")))
    obj = draw(st.dictionaries(KEYS, JSON_JUNK | AMPLITUDE_JUNK, max_size=2))
    if kind != "junk object":
        probs = draw(spectra(6)).probs.tolist()
        if kind == "schmidt":
            obj["schmidt"] = draw(st.permutations(probs))
        else:
            rows = np.diag(np.sqrt(probs)).tolist()
            obj["amplitudes"] = [[[x, 0.0] for x in row] for row in rows]
    return json.dumps(obj)


def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
    """``--name=value`` or nothing; the "=" keeps a negative value from reading as an option."""
    return st.one_of(st.just([]), values.map(lambda value: [f"{name}={value}"]))


def counts(low: int, high: int) -> st.SearchStrategy[int]:
    """An integer in [low, high], or one too large for an int64 or a float."""
    return st.integers(low, high) | st.sampled_from([2**63, 10**400])


POSITIONALS = {"report": 2, "schmidt": 1, "teleport": 1, "dilute": 1, "catalyze": 3, "nl-dist": 2, "verify": 2}


@st.composite
def cli_calls(draw) -> list[str]:
    """Arguments of one subcommand: states from ``state_args``, and flags of
    the right type in small ranges, counts and dimensions also past int64 and float."""
    command = draw(st.sampled_from([*POSITIONALS, "sweep"]))
    if command == "sweep":
        bounds = st.floats(-0.2, 1.2)
        flags = [flag("--phi", state_args()), flag("--start", bounds), flag("--stop", bounds),
                 flag("--steps", counts(-1, 6))]
        return ["sweep", *chain.from_iterable(map(draw, flags))]
    argv = [command, *(draw(state_args()) for _ in range(POSITIONALS[command]))]
    if command == "dilute":
        argv.insert(1, str(draw(counts(-1, 8))))
    flags = {
        "report": [flag("--epsilon", st.floats(-0.5, 2.5))],
        "catalyze": [flag("--epsilon", st.floats(-0.5, 2.5))],
        "teleport": [flag("--dim", counts(-1, 8))],
        "verify": [st.integers(-2, 2**32).map(lambda seed: [f"--seed={seed}"]), flag("--grid-step", st.floats(0.05, 1.5)),
                   flag("--trials", counts(-1, 7)), flag("--ensembles", counts(-1, 3))],
    }.get(command, [])
    return [*argv, *chain.from_iterable(map(draw, flags)), *draw(flag("--format", st.sampled_from(["text", "json"])))]


@given(argv=cli_calls())
@example(argv=["teleport", '{"schmidt":[0.5,0.5]}', f"--dim={10**400}"])
@example(argv=["sweep", f"--steps={10**400}"])
@settings(max_examples=150, deadline=None)
def test_every_subcommand_exits_with_a_documented_code_and_message(argv):
    out, err = io.StringIO(), io.StringIO()
    budget = mock.patch.dict(os.environ, {"LOCCXFORM_BUDGET": str(10**5)})  # refuses big counts at once
    with redirect_stdout(out), redirect_stderr(err), budget:
        code = main(argv)
    assert code in (0, 2, 3, 4)
    for line in err.getvalue().splitlines():
        assert line.startswith(("error: ", "i/o error: ", "warning: ")), line
    if code == 0 and "--format=json" in argv:
        json.loads(out.getvalue())
