"""The benchmark's workloads: seeded inputs, the timed operation, its check
and the trace-only probes.

Every workload is a closed loop with one client.  Its op mix is made of
exact shares: each cycle of ``len(KINDS)`` ops holds every kind of op once,
in an order shuffled by the seed, so every seed runs the same shares.  ``run`` is the timed
operation; it takes a ``span`` factory that is a no-op outside traced runs.
``probe`` runs only in traced runs, after the op, and calls the remaining
public functions of each layer on the op's inputs.  ``CHILDREN`` is true
when the op's work happens in child processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np

from loccxform import (
    BipartiteState,
    GridSpec,
    SchmidtSpectrum,
    build_staircase,
    catalysis_check,
    conclusive_probability,
    grid_max_fidelity,
    majorizes,
    nonlocal_trace_distance,
    optimal_fidelity,
    optimal_state,
    pad_to_common,
    parse_state_dict,
    sample_feasible_ensembles,
    sample_unitary_overlap,
    schmidt_spectrum,
    teleportation_fidelity,
    tensor,
)

import check
from spans import no_span

# The fixed 2-level catalyst of the catalysis application and tensor probe.
ETA = np.array([0.6, 0.4])
ETA_SPECTRUM = SchmidtSpectrum(tuple(ETA))
ENCODINGS = ("schmidt", "amplitudes")
APPLICATIONS = ("none", "nonlocal", "catalysis", "teleport")


# ---------------------------------------------------------------------------
# Input generation (plain numpy; the program receives only the results)
# ---------------------------------------------------------------------------


def dirichlet_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random point of the sorted probability simplex."""
    return np.sort(rng.dirichlet(np.ones(n)))[::-1]


def floored_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random spectrum with every coefficient at least 0.3 / (1 + 0.3 n).

    The grid oracle's 2-step resolution bound needs the optimum's
    coefficients to be representable at the grid step, the same condition
    the test suite's grid comparisons use.
    """
    return np.sort((rng.dirichlet(np.ones(n)) + 0.3) / (1.0 + 0.3 * n))[::-1]


def worst_case_source(n: int, offset: float) -> np.ndarray:
    """Cubic decay, p_i proportional to (i + offset)^-3.

    Converted into the uniform target, every level is its own block.
    """
    p = (np.arange(1, n + 1) + offset) ** -3.0
    return p / p.sum()


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def encode(rng: np.random.Generator, p: np.ndarray) -> dict[str, str]:
    """Both JSON encodings of a state with spectrum p.

    The amplitude form is U diag(sqrt p) V^T with random local unitaries, so
    its Schmidt spectrum is p by construction.
    """
    u, v = haar_unitary(rng, len(p)), haar_unitary(rng, len(p))
    m = u @ np.diag(np.sqrt(p)) @ v.T
    amps = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    return {
        "schmidt": json.dumps({"schmidt": p.tolist()}),
        "amplitudes": json.dumps({"amplitudes": amps}),
    }


def cycles(rng: np.random.Generator, kinds: list):
    """Endless op stream: every kind once per cycle, shuffled per cycle."""
    i = 0
    while True:
        for k in rng.permutation(len(kinds)):
            yield i, kinds[k]
            i += 1


def decode(text: str, span) -> SchmidtSpectrum:
    with span("spectra.decode"):
        state = parse_state_dict(json.loads(text))
    if isinstance(state, BipartiteState):
        with span("spectra.svd"):
            state = schmidt_spectrum(state)
    return state


def probe_pair(alpha, beta, span, counts) -> tuple[int, int]:
    """Time each public function of the pair layers on one pair; returns the
    staircase's (levels, blocks)."""
    with span("spectra.construct"):
        SchmidtSpectrum(alpha.probs)
    with span("spectra.tensor"):
        tensor(alpha, ETA_SPECTRUM)
    with span("majorization.majorizes"):
        majorizes(alpha, beta)
    with span("majorization.conclusive"):
        conclusive_probability(alpha, beta)
    with span("faithful.staircase"):
        stair = build_staircase(alpha, beta)
    with span("faithful.optimal_state"):
        optimal_state(alpha, beta)
    levels, blocks = stair.dimension, len(stair.segments)
    counts["faithful.levels"].append(levels)
    counts["faithful.blocks"].append(blocks)
    return levels, blocks


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class PairsSmall:
    """Library sweep over small pairs decoded from JSON, plus one
    application call in rotation."""

    name = "pairs-small"
    CHILDREN = False
    KINDS = [(s, t, app) for s in ENCODINGS for t in ENCODINGS for app in APPLICATIONS]
    SIZES = range(2, 17)

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        # Every (n, m) once, in seeded order: the sizes, which set the cost,
        # are the same for every seed.
        sizes = [(n, m) for n in self.SIZES for m in self.SIZES]
        self.pairs = []
        for k in rng.permutation(len(sizes)):
            n, m = sizes[k]
            a, b = dirichlet_spectrum(rng, n), dirichlet_spectrum(rng, m)
            self.pairs.append((a, encode(rng, a), b, encode(rng, b)))
        self.sched_seed = int(rng.integers(2**63))
        self.apps = {
            "nonlocal": ("applications.nonlocal", nonlocal_trace_distance),
            "catalysis": (
                "applications.catalysis",
                lambda a, b: catalysis_check(a, b, ETA_SPECTRUM),
            ),
            "teleport": ("applications.teleport", lambda a, b: teleportation_fidelity(a)),
        }

    def ops(self):
        for i, kind in cycles(np.random.default_rng(self.sched_seed), self.KINDS):
            yield self.pairs[i % len(self.pairs)], kind

    def warm_up(self) -> None:
        for i, kind in enumerate(self.KINDS):
            op = (self.pairs[i], kind)
            self.check(op, self.run(op, no_span))

    def run(self, op, span):
        (_, a_json, _, b_json), (s_enc, t_enc, app) = op
        alpha = decode(a_json[s_enc], span)
        beta = decode(b_json[t_enc], span)
        with span("faithful.report"):
            report = optimal_fidelity(alpha, beta)
        value = None
        if app in self.apps:
            name, fn = self.apps[app]
            with span(name):
                value = fn(alpha, beta)
        return alpha, beta, report, value

    def check(self, op, out) -> list[str]:
        (a, _, b, _), (_, _, app) = op
        alpha, beta, report, value = out
        errors = check.check_spectrum(a, alpha.probs) + check.check_spectrum(b, beta.probs)
        errors += check.check_report(a, b, report)
        if app == "nonlocal":
            errors += check.check_nonlocal(a, b, report.f_opt, value)
        elif app == "catalysis":
            errors += check.check_catalysis(a, b, ETA, report, value)
        elif app == "teleport":
            errors += check.check_teleportation(a, value)
        return errors

    def probe(self, op, out, span, counts) -> None:
        probe_pair(out[0], out[1], span, counts)


class PairsLarge:
    """Pre-built large spectra: random Dirichlet pairs and the one block per
    level worst case."""

    name = "pairs-large"
    CHILDREN = False
    SIZES = (1024, 4096)
    RANDOM_PER_SIZE = 16
    KINDS = [("random", 1024)] * 3 + [("random", 4096)] * 3 + [("worst", 1024), ("worst", 4096)]

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng([seed, 2])

        def pair(a: np.ndarray, b: np.ndarray):
            return a, b, SchmidtSpectrum(tuple(a.tolist())), SchmidtSpectrum(tuple(b.tolist()))

        self.pairs = {
            ("random", n): [
                pair(dirichlet_spectrum(rng, n), dirichlet_spectrum(rng, n))
                for _ in range(self.RANDOM_PER_SIZE)
            ]
            for n in self.SIZES
        }
        offset = float(rng.uniform(0.5, 1.5))
        for n in self.SIZES:
            self.pairs[("worst", n)] = [pair(worst_case_source(n, offset), np.full(n, 1.0 / n))]
        self.sched_seed = int(rng.integers(2**63))
        # Guard: the worst case must stay one block per level, or the
        # workload would quietly become easy.
        for n in self.SIZES:
            for _, _, alpha, beta in self.pairs[("worst", n)]:
                stair = build_staircase(alpha, beta)
                if not (stair.dimension == len(stair.segments) == n):
                    raise RuntimeError(
                        f"worst-case pair at n={n} gives {len(stair.segments)} blocks"
                        f" for {stair.dimension} levels"
                    )

    def ops(self):
        seen = {kind: 0 for kind in self.pairs}
        for _, kind in cycles(np.random.default_rng(self.sched_seed), self.KINDS):
            pool = self.pairs[kind]
            yield kind, pool[seen[kind] % len(pool)]
            seen[kind] += 1

    def warm_up(self) -> None:
        for n in self.SIZES:
            op = (("random", n), self.pairs[("random", n)][0])
            self.check(op, self.run(op, no_span))

    def run(self, op, span):
        _, (_, _, alpha, beta) = op
        with span("faithful.report"):
            return optimal_fidelity(alpha, beta)

    def check(self, op, out) -> list[str]:
        _, (a, b, _, _) = op
        return check.check_report(a, b, out)

    def probe(self, op, out, span, counts) -> None:
        (kind, _), (_, _, alpha, beta) = op
        levels, blocks = probe_pair(alpha, beta, span, counts)
        if kind == "worst":
            counts["faithful.worst_levels"].append(levels)
            counts["faithful.worst_blocks"].append(blocks)


@cache
def grid_point_count(total: int, parts: int) -> int:
    """Nonincreasing compositions of ``total`` into ``parts`` slots, i.e.
    partitions of total into at most ``parts`` parts: the grid size."""
    ways = [1] + [0] * total
    for size in range(1, parts + 1):
        for s in range(size, total + 1):
            ways[s] += ways[s - size]
    return ways[total]


class VerifyOracles:
    """What ``loccxform verify`` computes, for small pairs."""

    name = "verify-oracles"
    CHILDREN = False
    KINDS = [(n, step) for n in (3, 4) for step in (0.01, 0.02)]
    # Op cost varies about threefold from pair to pair (the ensemble
    # sampler's rejections), so a run draws each op's pair fresh from a large
    # pool rather than cycling a small one.
    PER_SIZE = 512
    TRIALS = 1000
    ENSEMBLES = 200

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.pairs = {}
        for n in (3, 4):
            self.pairs[n] = []
            for _ in range(self.PER_SIZE):
                a, b = floored_spectrum(rng, n), floored_spectrum(rng, n)
                self.pairs[n].append(
                    (a, b, SchmidtSpectrum(tuple(a.tolist())), SchmidtSpectrum(tuple(b.tolist())))
                )
        self.sched_seed = int(rng.integers(2**63))
        self.oracle_seed = int(rng.integers(2**31))
        # Grid keys requested so far, and per request whether its key had
        # been requested before (a hit of the program's grid cache).
        self.keys_seen: set[tuple[int, int]] = set()
        self.grid_hits: list[bool] = []

    def ops(self):
        for i, (n, step) in cycles(np.random.default_rng(self.sched_seed), self.KINDS):
            yield n, step, self.pairs[n][i % self.PER_SIZE], self.oracle_seed + i

    def warm_up(self) -> None:
        """One op of each kind, which also fills the grid cache."""
        for n, step in self.KINDS:
            op = (n, step, self.pairs[n][0], self.oracle_seed - 1)
            self.check(op, self.run(op, no_span))
        self.grid_hits.clear()

    def run(self, op, span):
        _, step, (_, _, alpha, beta), seed = op
        with span("faithful.report"):
            report = optimal_fidelity(alpha, beta)
        a_pad, b_pad = pad_to_common(alpha, beta)
        grid_spec = GridSpec(len(a_pad), step)
        key = (grid_spec.resolution, grid_spec.dimension)
        self.grid_hits.append(key in self.keys_seen)
        self.keys_seen.add(key)
        with span("oracle.grid"):
            grid = grid_max_fidelity(alpha, beta, grid_spec)
        tau = BipartiteState(np.diag(np.sqrt(a_pad.as_array())))
        omega = BipartiteState(np.diag(np.sqrt(b_pad.as_array())))
        with span("oracle.mc"):
            sampled = sample_unitary_overlap(tau, omega, self.TRIALS, seed)
        with span("oracle.ensemble"):
            values = sample_feasible_ensembles(alpha, beta, self.ENSEMBLES, seed)
        return report, grid, sampled, values

    def check(self, op, out) -> list[str]:
        _, step, (a, b, _, _), _ = op
        report, grid, sampled, values = out
        return check.check_report(a, b, report) + check.check_verify(
            a, b, report.f_opt, grid, step, sampled, values, self.ENSEMBLES
        )

    def probe(self, op, out, span, counts) -> None:
        n, step, (_, _, alpha, beta), _ = op
        probe_pair(alpha, beta, span, counts)
        spec = GridSpec(n, step)
        counts["oracle.grid_points"].append(grid_point_count(spec.resolution, n))
        counts["oracle.grid_hit"].extend(self.grid_hits)
        self.grid_hits.clear()


IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import loccxform.cli\n"
    "t2 = time.perf_counter()\n"
    "print((t1 - t0) * 1e3, (t2 - t1) * 1e3)\n"
)


class CliReport:
    """``loccxform report`` as a user runs it: one process per pair.

    States are inline JSON: spectra with 2 to 6 coefficients, and 2 x 2
    amplitude matrices.  A larger matrix at full precision makes an
    argument longer than 255 bytes, which the CLI rejects with exit code 3
    ("File name too long"): it tests every argument as a file path first.
    """

    name = "cli-report"
    # Ops run in child processes: their CPU time and memory are the
    # children's.
    CHILDREN = True
    POOL = 16
    KINDS = [(s, t) for s in ENCODINGS for t in ENCODINGS]

    def __init__(self, seed: int, root: Path) -> None:
        rng = np.random.default_rng([seed, 4])
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

        def state() -> dict:
            """Per encoding, a generated spectrum and its JSON text."""
            p = dirichlet_spectrum(rng, int(rng.integers(2, 7)))
            q = dirichlet_spectrum(rng, 2)
            return {"schmidt": (p, encode(rng, p)["schmidt"]),
                    "amplitudes": (q, encode(rng, q)["amplitudes"])}

        self.pairs = [(state(), state()) for _ in range(self.POOL)]
        self.sched_seed = int(rng.integers(2**63))
        # In-process reference for every (pair, encodings) the loop can run,
        # itself checked against the generated spectra.
        self.expected = {}
        for i, (src, dst) in enumerate(self.pairs):
            for s_enc, t_enc in self.KINDS:
                (a, a_json), (b, b_json) = src[s_enc], dst[t_enc]
                report = optimal_fidelity(decode(a_json, no_span), decode(b_json, no_span))
                self.expected[i, s_enc, t_enc] = (
                    check.expected_cli_fields(report),
                    check.check_report(a, b, report),
                )

    def ops(self):
        for i, kind in cycles(np.random.default_rng(self.sched_seed), self.KINDS):
            yield i % self.POOL, kind

    def warm_up(self) -> None:
        op = (0, self.KINDS[0])
        self.check(op, self.run(op, no_span))

    def _texts(self, op) -> tuple[str, str]:
        i, (s_enc, t_enc) = op
        src, dst = self.pairs[i]
        return src[s_enc][1], dst[t_enc][1]

    def _argv(self, op) -> list[str]:
        return [sys.executable, "-m", "loccxform.cli", "report", *self._texts(op)]

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=60
        )

    def run(self, op, span):
        argv = self._argv(op)
        with span("cli.process"):
            return self._spawn(argv)

    def check(self, op, out) -> list[str]:
        i, (s_enc, t_enc) = op
        fields, ref_errors = self.expected[i, s_enc, t_enc]
        if out.returncode != 0:
            return [f"cli exited {out.returncode}: {out.stderr.strip()[-200:]}"]
        return ref_errors + check.check_cli_report(out.stdout, fields)

    def probe(self, op, out, span, counts) -> None:
        with span("cli.interpreter"):
            self._spawn([sys.executable, "-c", "pass"])
        with span("cli.imports"):
            proc = self._spawn([sys.executable, "-c", IMPORT_PROBE])
        numpy_ms, cli_ms = (float(x) for x in proc.stdout.split())
        counts["cli.import_numpy_ms"].append(numpy_ms)
        counts["cli.import_ms"].append(cli_ms)
        for text in self._texts(op):
            decode(text, span)


WORKLOADS = {wl.name: wl for wl in (PairsSmall, PairsLarge, VerifyOracles, CliReport)}
