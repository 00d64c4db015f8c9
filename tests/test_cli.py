import csv
import io
import json
import math
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from loccxform import BipartiteState, SchmidtSpectrum, optimal_fidelity, schmidt_spectrum
from loccxform import cli
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


def test_report_with_noise_bounds(capsys):
    code, out, _ = run(capsys, "report", PSI, PHI, "--epsilon", "0.2", "--format", "json")
    payload = json.loads(out)
    t_opt = 2 * math.sqrt(0.1)
    assert payload["noisy_trace_distance_bounds"] == pytest.approx(
        [t_opt - 0.2, t_opt + 0.2], abs=1e-9
    )


def test_report_rejects_unnormalized(capsys):
    code, _, err = run(capsys, "report", '{"schmidt":[0.5,0.6]}', PHI)
    assert code == 2
    assert "not normalized" in err


def test_report_rejects_malformed_json(capsys):
    code, _, err = run(capsys, "report", '{"schmidt": oops', PHI)
    assert code == 2
    assert "malformed" in err


def test_missing_state_file_is_an_io_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "psi.json")
    code, out, err = run(capsys, "report", missing, '{"schmidt":[1]}')
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error:") and missing in err


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


def test_teleport_values(capsys):
    code, out, _ = run(capsys, "teleport", '{"schmidt":[0.5,0.3,0.2]}', "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["teleportation_fidelity"] == pytest.approx(0.97424, abs=1e-4)
    assert payload["robustness"] == pytest.approx(1.89695, abs=1e-4)


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
    assert payload["noise_threshold"] == payload["delta_T"]
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


@pytest.mark.parametrize("step", ["5e-324", "1e-300"])
def test_verify_rejects_a_grid_step_too_fine_for_int64(capsys, step):
    argv = ["verify", '{"schmidt":[1]}', '{"schmidt":[1]}', "--seed", "1", "--grid-step", step]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: grid step too fine for an int64 resolution: {float(step)!r}\n"


@pytest.mark.parametrize(
    "flag,value",
    [("--seed", "-1"), ("--trials", "0"), ("--ensembles", "0"), ("--grid-step", "0"),
     ("--grid-step", "1.5"), ("--grid-step", "nan")],
)
def test_verify_rejects_bad_flag_values(capsys, flag, value):
    argv = ["verify", PSI, PHI, "--seed", "1", flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must ")


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
