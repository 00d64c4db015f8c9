"""Tests of the benchmark's output checker and of BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_check.py

A correct report passes; each perturbed field is caught and counted as a
failed op.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from loccxform import SchmidtSpectrum, catalysis_check, optimal_fidelity

import check
import run

ROOT = Path(__file__).resolve().parent.parent
ALPHA = np.array([0.5, 0.3, 0.15, 0.05])
BETA = np.array([0.4, 0.4, 0.2])


def spectrum(p: np.ndarray) -> SchmidtSpectrum:
    return SchmidtSpectrum(tuple(p.tolist()))


@pytest.fixture
def report():
    return optimal_fidelity(spectrum(ALPHA), spectrum(BETA))


def test_correct_report_passes(report):
    assert check.check_report(ALPHA, BETA, report) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("f_opt", lambda r: r.f_opt - 1e-6),
        ("conclusive_p", lambda r: r.conclusive_p + 1e-6),
        ("deterministic", lambda r: not r.deterministic),
        ("trace_distance", lambda r: r.trace_distance + 1e-6),
        ("xi", lambda r: spectrum(BETA)),
    ],
)
def test_perturbed_report_is_counted(report, field, value):
    bad = dataclasses.replace(report, **{field: value(report)})
    tally = check.Tally()
    tally.add(check.check_report(ALPHA, BETA, report))
    tally.add(check.check_report(ALPHA, BETA, bad))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == 0.5
    assert tally.first_errors


def test_catalysis_checks():
    eta = np.array([0.6, 0.4])
    a, b = spectrum(ALPHA), spectrum(BETA)
    rep = optimal_fidelity(a, b)
    cat = catalysis_check(a, b, spectrum(eta))
    assert check.check_catalysis(ALPHA, BETA, eta, rep, cat) == []
    worse = dataclasses.replace(cat, trace_distance_catalyzed=cat.trace_distance_bare + 0.1)
    assert check.check_catalysis(ALPHA, BETA, eta, rep, worse)


def test_cli_text_must_match_to_12_digits(report):
    fields = check.expected_cli_fields(report)
    text = "\n".join(f"{key:18s} {value}" for key, value in fields.items())
    assert check.check_cli_report(text, fields) == []
    digits = f"{report.f_opt:.12g}"
    tampered = text.replace(digits, digits[:-1] + str((int(digits[-1]) + 1) % 10), 1)
    assert check.check_cli_report(tampered, fields)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
