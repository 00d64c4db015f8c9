"""Output checker for the benchmark.

Every check here is recomputed in plain numpy from the spectra the benchmark
generated, never by calling into ``loccxform``: a defect in the code under
test must not be able to vouch for itself.  Each ``check_*`` function returns
a list of error strings, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance for recomputed probabilities and fidelities.
TOL = 1e-9
# The partial-sum margin below which a conversion counts as impossible; the
# same threshold the paper's deterministic test uses on rounded inputs.
PARTIAL_SUM_TOL = 1e-10


def _padded(*spectra: np.ndarray) -> list[np.ndarray]:
    n = max(len(s) for s in spectra)
    return [np.pad(np.asarray(s, dtype=float), (0, n - len(s))) for s in spectra]


def _tails(p: np.ndarray) -> np.ndarray:
    return np.cumsum(p[::-1])[::-1]


def aligned_overlap(alpha: np.ndarray, beta: np.ndarray) -> float:
    """(sum_i sqrt(alpha_i beta_i))^2 of two sorted spectra, clamped to 1."""
    a, b = _padded(alpha, beta)
    return min(1.0, float(np.sqrt(a * b).sum()) ** 2)


def deterministic(alpha: np.ndarray, beta: np.ndarray) -> bool:
    """Partial-sum test: does alpha convert into beta with certainty?"""
    a, b = _padded(alpha, beta)
    return bool(np.all(np.cumsum(b) - np.cumsum(a) >= -PARTIAL_SUM_TOL))


def conclusive_probability(alpha: np.ndarray, beta: np.ndarray) -> float:
    """Smallest tail ratio of alpha over beta, clamped to [0, 1]."""
    a, b = _padded(alpha, beta)
    ta, tb = _tails(a), _tails(b)
    mask = tb > 0.0
    return float(np.clip((ta[mask] / tb[mask]).min(), 0.0, 1.0))


def kron_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sort(np.outer(a, b).ravel())[::-1]


def check_report(alpha: np.ndarray, beta: np.ndarray, report) -> list[str]:
    """Check a ``TransformReport`` for the pair (alpha, beta).

    alpha and beta are the generated spectra, sorted nonincreasing.
    """
    errors = []
    xi_raw = np.asarray(report.xi.probs, dtype=float)
    a, b, xi = _padded(alpha, beta, xi_raw)
    if abs(xi.sum() - 1.0) > TOL or xi.min() < -TOL or np.any(np.diff(xi) > TOL):
        errors.append("xi is not a normalized nonincreasing spectrum")
    if np.any(np.cumsum(xi) < np.cumsum(a) - TOL):
        errors.append("xi's partial sums do not dominate alpha's")
    f_xi = min(1.0, float(np.sqrt(xi * b).sum()) ** 2)
    if abs(report.f_opt - f_xi) > TOL:
        errors.append(f"f_opt {report.f_opt!r} != overlap of xi with beta {f_xi!r}")
    f_aligned = aligned_overlap(a, b)
    if report.f_opt < f_aligned - TOL:
        errors.append(f"f_opt {report.f_opt!r} below the aligned overlap {f_aligned!r}")
    if abs(report.trace_distance - 2.0 * np.sqrt(max(0.0, 1.0 - report.f_opt))) > TOL:
        errors.append("trace_distance != 2 sqrt(1 - f_opt)")
    p = conclusive_probability(a, b)
    if abs(report.conclusive_p - p) > TOL:
        errors.append(f"conclusive_p {report.conclusive_p!r} != min tail ratio {p!r}")
    if report.deterministic != deterministic(a, b):
        errors.append("deterministic disagrees with the partial-sum test")
    return errors


def check_spectrum(expected: np.ndarray, probs) -> list[str]:
    """A decoded (or SVD-derived) spectrum matches the generated one."""
    got, want = _padded(np.asarray(probs, dtype=float), expected)
    if np.max(np.abs(got - want)) > TOL:
        return ["decoded spectrum differs from the generated one"]
    return []


def check_teleportation(alpha: np.ndarray, value: float) -> list[str]:
    n = len(alpha)
    want = (float(np.sqrt(alpha).sum()) ** 2 + 1.0) / (n + 1.0)
    if abs(value - want) > TOL:
        return [f"teleportation fidelity {value!r} != {want!r}"]
    return []


def check_nonlocal(alpha: np.ndarray, beta: np.ndarray, f_opt: float, value: float) -> list[str]:
    """The non-local distance uses the worse of the two directed fidelities,
    so it lies between the distances that f_opt and the aligned overlap give."""
    low = 2.0 * np.sqrt(max(0.0, 1.0 - f_opt))
    high = 2.0 * np.sqrt(max(0.0, 1.0 - aligned_overlap(alpha, beta)))
    if not (low - TOL <= value <= high + TOL):
        return [f"non-local distance {value!r} outside [{low!r}, {high!r}]"]
    return []


def check_catalysis(
    alpha: np.ndarray, beta: np.ndarray, eta: np.ndarray, report, cat
) -> list[str]:
    """Keeping the ancilla aside is always possible, so a catalyst never
    makes the reachable distance worse than the bare report's."""
    errors = []
    ae, be = kron_sorted(alpha, eta), kron_sorted(beta, eta)
    if abs(cat.trace_distance_bare - report.trace_distance) > TOL:
        errors.append("catalysis bare distance differs from the report")
    if cat.convertible_bare != deterministic(alpha, beta):
        errors.append("catalysis bare verdict disagrees with the partial-sum test")
    if cat.convertible_with_catalyst != deterministic(ae, be):
        errors.append("catalysed verdict disagrees with the partial-sum test")
    if cat.trace_distance_catalyzed > cat.trace_distance_bare + TOL:
        errors.append("catalyst increased the reachable distance")
    ceiling = 2.0 * np.sqrt(max(0.0, 1.0 - aligned_overlap(ae, be)))
    if cat.trace_distance_catalyzed > ceiling + TOL:
        errors.append("catalysed distance exceeds the aligned-overlap distance")
    if abs(cat.delta_T - (cat.trace_distance_bare - cat.trace_distance_catalyzed)) > TOL:
        errors.append("delta_T != bare - catalysed distance")
    return errors


def check_verify(
    alpha: np.ndarray,
    beta: np.ndarray,
    f_opt: float,
    grid: float,
    step: float,
    sampled: float,
    ensembles: list[float],
    count: int,
) -> list[str]:
    """The three checks of ``loccxform verify``, with the aligned overlap
    recomputed here."""
    errors = []
    if not (-1e-12 <= f_opt - grid <= 2.0 * step):
        errors.append(f"grid value {grid!r} not within 2 steps below f_opt {f_opt!r}")
    aligned = aligned_overlap(alpha, beta)
    if not (aligned - 1e-10 <= sampled <= aligned + 1e-9):
        errors.append(f"sampled overlap {sampled!r} != aligned overlap {aligned!r}")
    if len(ensembles) != count or abs(ensembles[0] - aligned) > TOL:
        errors.append("ensemble sample is not the do-nothing ensemble plus draws")
    if max(ensembles) > f_opt + 1e-10:
        errors.append(f"an ensemble beats f_opt: {max(ensembles)!r} > {f_opt!r}")
    return errors


def check_cli_report(stdout: str, expected: dict[str, str]) -> list[str]:
    """Text output of ``loccxform report`` against the expected fields,
    which are rendered to 12 significant digits as the CLI prints them."""
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return [
        f"cli {key}: {fields.get(key)!r} != {want!r}"
        for key, want in expected.items()
        if fields.get(key) != want
    ]


def expected_cli_fields(report) -> dict[str, str]:
    """The ``report`` fields as the CLI's text format renders them."""

    def num(x: float) -> str:
        return f"{x:.12g}"

    return {
        "f_opt": num(report.f_opt),
        "xi": ", ".join(num(x) for x in report.xi.probs),
        "trace_distance": num(report.trace_distance),
        "p_conclusive": num(report.conclusive_p),
        "deterministic": str(report.deterministic),
    }


class Tally:
    """Attempted and failed operations; an op fails on any error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.first_errors) < 5:
                self.first_errors.extend(errors[: 5 - len(self.first_errors)])

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
