"""Command-line interface: conversion reports, derived quantities, oracle
verification runs, and CSV parameter sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .applications import (
    catalysis_check,
    concentration_fidelity,
    dilution_fidelity,
    nonlocal_fidelity,
    nonlocal_trace_distance,
    robustness_interval,
    robustness_of_entanglement,
    teleportation_fidelity,
)
from .faithful import TransformReport, optimal_fidelity
from .majorization import majorizes
from .oracle import (
    GridBudgetError,
    GridSpec,
    grid_fidelity_floor,
    grid_max_fidelity,
    sample_feasible_ensembles,
    sample_unitary_overlap,
)
from .spectra import (
    FIDELITY_SNAP,
    ORACLE_TOL,
    SAMPLED_OVERLAP_TOL,
    BipartiteState,
    SchmidtSpectrum,
    aligned_fidelity,
    pad_pair,
    parse_state_dict,
    schmidt_spectrum,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def parse_state_spec(text: str) -> SchmidtSpectrum:
    """Parse a state argument (inline JSON, or a path to a JSON file) into its
    spectrum, taking the SVD of amplitude input.  A spectrum given unsorted is
    sorted with a warning on stderr that names the state's optional "label".
    An argument that is not an existing file and does not start with "{"
    raises FileNotFoundError.
    """
    path = Path(text)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. inline JSON longer than the system's name limit
        is_file = False
    if not is_file and not text.lstrip().startswith("{"):
        raise FileNotFoundError(f"no state file {text!r}, and not an inline JSON object")
    raw = path.read_text(encoding="utf-8") if is_file else text
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state JSON: {exc}") from exc
    parsed = parse_state_dict(obj)
    if isinstance(parsed, BipartiteState):
        return schmidt_spectrum(parsed)
    if parsed.resorted:
        name = obj.get("label") or "input"
        print(f"warning: {name} spectrum was not sorted; sorted it", file=sys.stderr)
    return parsed


def report_to_dict(report: TransformReport) -> dict:
    return {
        "f_opt": report.f_opt,
        "xi": report.xi.probs.tolist(),
        "trace_distance": report.trace_distance,
        "p_conclusive": report.conclusive_p,
        "deterministic": report.deterministic,
        "segments": [
            {"l": s.start, "r": s.ratio, "A": s.source_mass, "B": s.target_mass}
            for s in report.staircase.segments
        ],
    }


def _num(x: float) -> str:
    return f"{x:.12g}"


def _print_payload(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            parts = [
                " ".join(f"{k}={_num(v) if isinstance(v, float) else v}" for k, v in row.items())
                for row in value
            ]
            print(f"{key:18s} {' | '.join(parts)}")
        elif isinstance(value, list):
            print(f"{key:18s} {', '.join(_num(v) for v in value)}")
        elif isinstance(value, float):
            print(f"{key:18s} {_num(value)}")
        else:
            print(f"{key:18s} {value}")


def emit_csv(labels: Sequence[str], rows: Sequence[Sequence[object]], out) -> None:
    """Write an RFC-4180 CSV with a header row to the text stream ``out``;
    floats use 12 significant digits."""

    writer = csv.writer(out)
    writer.writerow(labels)
    for row in rows:
        writer.writerow([_num(cell) if isinstance(cell, float) else str(cell) for cell in row])


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    psi = parse_state_spec(args.psi)
    phi = parse_state_spec(args.phi)
    report = optimal_fidelity(psi, phi)
    payload = report_to_dict(report)
    if args.epsilon is not None:
        payload["noisy_trace_distance_bounds"] = list(robustness_interval(psi, phi, args.epsilon))
    _print_payload(payload, args.format)
    return EXIT_OK


def _cmd_schmidt(args: argparse.Namespace) -> int:
    spectrum = parse_state_spec(args.state)
    _print_payload({"schmidt": spectrum.probs.tolist()}, args.format)
    return EXIT_OK


def _cmd_teleport(args: argparse.Namespace) -> int:
    alpha = parse_state_spec(args.psi)
    payload = {
        "dimension": args.dim if args.dim is not None else len(alpha),
        "concentration_fidelity": concentration_fidelity(alpha, args.dim),
        "robustness": robustness_of_entanglement(alpha, args.dim),
        "teleportation_fidelity": teleportation_fidelity(alpha, args.dim),
    }
    _print_payload(payload, args.format)
    return EXIT_OK


def _cmd_dilute(args: argparse.Namespace) -> int:
    beta = parse_state_spec(args.phi)
    fidelity, xi = dilution_fidelity(args.m, beta)
    _print_payload({"f_opt": fidelity, "xi": xi.probs.tolist()}, args.format)
    return EXIT_OK


def _cmd_catalyze(args: argparse.Namespace) -> int:
    psi = parse_state_spec(args.psi)
    phi = parse_state_spec(args.phi)
    eta = parse_state_spec(args.eta)
    report = catalysis_check(psi, phi, eta)
    payload = {
        "convertible_bare": report.convertible_bare,
        "convertible_with_catalyst": report.convertible_with_catalyst,
        "trace_distance_bare": report.trace_distance_bare,
        "trace_distance_catalyzed": report.trace_distance_catalyzed,
        "delta_T": report.delta_T,
        "noise_threshold": report.delta_T,
    }
    if args.epsilon is not None:
        if not (0.0 <= args.epsilon <= 2.0):
            raise ValueError(f"trace distance out of range [0, 2]: {args.epsilon!r}")
        payload["noise"] = args.epsilon
        payload["gain_survives_noise"] = bool(args.epsilon < report.delta_T)
    _print_payload(payload, args.format)
    return EXIT_OK


def _cmd_nl_dist(args: argparse.Namespace) -> int:
    a = parse_state_spec(args.a)
    b = parse_state_spec(args.b)
    payload = {
        "nonlocal_fidelity": nonlocal_fidelity(a, b),
        "nonlocal_trace_distance": nonlocal_trace_distance(a, b),
    }
    _print_payload(payload, args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer: {args.seed!r}")
    if args.trials < 1:
        raise ValueError(f"--trials must be a positive integer: {args.trials!r}")
    if args.ensembles < 1:
        raise ValueError(f"--ensembles must be a positive integer: {args.ensembles!r}")
    if not (0.0 < args.grid_step <= 1.0):
        raise ValueError(f"--grid-step must lie in (0, 1]: {args.grid_step!r}")
    alpha = parse_state_spec(args.psi)
    beta = parse_state_spec(args.phi)
    report = optimal_fidelity(alpha, beta)

    pair = pad_pair(alpha, beta)
    spec = GridSpec(len(pair.a), args.grid_step)
    grid = grid_max_fidelity(alpha, beta, spec)
    floor = grid_fidelity_floor(report.xi, beta, spec)
    # the grid is laid at 1/resolution, which rounds 1/--grid-step to an integer
    grid_step = 1.0 / spec.resolution
    # diagonal representatives of the padded spectra keep dimensions equal
    tau = BipartiteState(np.diag(np.sqrt(pair.a)))
    omega = BipartiteState(np.diag(np.sqrt(pair.b)))
    sampled = sample_unitary_overlap(tau, omega, args.trials, args.seed)
    aligned = aligned_fidelity(alpha, beta)
    worst = max(sample_feasible_ensembles(alpha, beta, args.ensembles, args.seed))
    # The floor is proven for a xi whose partial sums dominate alpha's; tying
    # f_opt to xi's own fidelity makes it bound f_opt - grid from above too.
    grid_ok = (-FIDELITY_SNAP <= report.f_opt - grid and grid >= floor - ORACLE_TOL
               and report.f_opt <= aligned_fidelity(report.xi, beta) + ORACLE_TOL
               and majorizes(alpha, report.xi).deterministic)
    rows = [  # claim, theorem value, oracle value, pass
        ("grid search over dominating spectra never beats the construction",
         report.f_opt, grid, grid_ok),
        ("sampled local-unitary overlaps stay at or below the aligned fidelity",
         aligned, sampled, aligned - ORACLE_TOL <= sampled <= aligned + SAMPLED_OVERLAP_TOL),
        ("no feasible probabilistic conversion beats the deterministic optimum",
         report.f_opt, worst, worst <= report.f_opt + ORACLE_TOL),
    ]
    checks = [
        {"claim": claim, "theorem_value": theorem, "oracle_value": oracle,
         "gap": theorem - oracle, "pass": bool(ok)}
        for claim, theorem, oracle, ok in rows
    ]
    checks[0]["grid_step"] = grid_step

    if args.format == "json":
        print(json.dumps(checks, indent=2))
    else:
        for check in checks:
            status = "PASS" if check["pass"] else "FAIL"
            step = f" step={_num(check['grid_step'])}" if "grid_step" in check else ""
            print(
                f"[{status}] {check['claim']}: theorem={_num(check['theorem_value'])}"
                f" oracle={_num(check['oracle_value'])} gap={_num(check['gap'])}{step}"
            )
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_VERIFY


def _cmd_sweep(args: argparse.Namespace) -> int:
    target = parse_state_spec(args.phi)
    if not (0.0 <= args.start <= args.stop <= 1.0):
        raise ValueError("sweep range must satisfy 0 <= start <= stop <= 1")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    rows = []
    for t in np.linspace(args.start, args.stop, args.steps):
        alpha = SchmidtSpectrum((1.0 - float(t), float(t)))
        rep = optimal_fidelity(alpha, target)
        rows.append((float(t), rep.f_opt, rep.conclusive_p, rep.trace_distance))
    labels = ("b2", "f_opt", "p_conclusive", "trace_distance")
    if args.out is None:
        emit_csv(labels, rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            emit_csv(labels, rows, handle)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccxform",
        description="Optimal approximate LOCC conversions between bipartite pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="optimal conversion report for a state pair")
    rep.add_argument("psi", help="source state (JSON or path)")
    rep.add_argument("phi", help="target state (JSON or path)")
    rep.add_argument("--epsilon", type=float, default=None,
                     help="noise distance; adds bounds for a corrupted source")
    _add_format(rep)
    rep.set_defaults(handler=_cmd_report)

    sch = sub.add_parser("schmidt", help="Schmidt spectrum of a state")
    sch.add_argument("state", help="state (JSON or path)")
    _add_format(sch)
    sch.set_defaults(handler=_cmd_schmidt)

    tel = sub.add_parser("teleport", help="concentration, robustness, teleportation fidelity")
    tel.add_argument("psi", help="shared state (JSON or path)")
    tel.add_argument("--dim", type=int, default=None, help="target dimension (default: spectrum length)")
    _add_format(tel)
    tel.set_defaults(handler=_cmd_teleport)

    dil = sub.add_parser("dilute", help="best approximation of a target from an m-state")
    dil.add_argument("m", type=int, help="number of equal coefficients in the source")
    dil.add_argument("phi", help="target state (JSON or path)")
    _add_format(dil)
    dil.set_defaults(handler=_cmd_dilute)

    cat = sub.add_parser("catalyze", help="effect of a shared catalyst on a conversion")
    cat.add_argument("psi", help="source state (JSON or path)")
    cat.add_argument("phi", help="target state (JSON or path)")
    cat.add_argument("eta", help="catalyst state (JSON or path)")
    cat.add_argument("--epsilon", type=float, default=None,
                     help="noise distance; reports whether the gain survives")
    _add_format(cat)
    cat.set_defaults(handler=_cmd_catalyze)

    nld = sub.add_parser("nl-dist", help="non-local fidelity and trace distance")
    nld.add_argument("a", help="state (JSON or path)")
    nld.add_argument("b", help="state (JSON or path)")
    _add_format(nld)
    nld.set_defaults(handler=_cmd_nl_dist)

    ver = sub.add_parser("verify", help="cross-check the construction against brute-force oracles")
    ver.add_argument("psi", help="source state (JSON or path)")
    ver.add_argument("phi", help="target state (JSON or path)")
    ver.add_argument("--seed", type=int, required=True, help="master seed (required; no wall-clock seeding)")
    ver.add_argument("--grid-step", type=float, default=0.01)
    ver.add_argument("--trials", type=int, default=1000, help="random unitary pairs to sample")
    ver.add_argument("--ensembles", type=int, default=200, help="random feasible ensembles to sample")
    _add_format(ver)
    ver.set_defaults(handler=_cmd_verify)

    swp = sub.add_parser("sweep", help="CSV of f_opt for two-level sources (1-b2, b2) vs a target")
    swp.add_argument("--phi", default='{"schmidt":[0.5,0.5]}', help="target state (JSON or path)")
    swp.add_argument("--start", type=float, default=0.1)
    swp.add_argument("--stop", type=float, default=0.5)
    swp.add_argument("--steps", type=int, default=5)
    swp.add_argument("--out", default=None, help="output path (default: stdout)")
    swp.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, GridBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
