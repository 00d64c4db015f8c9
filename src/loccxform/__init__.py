"""Optimal approximate LOCC conversions between bipartite pure entangled states.

Computes the best deterministically reachable approximation of a target
state, the fidelity it achieves, the optimal conclusive conversion
probability, and the derived quantities built on those: concentration and
teleportation fidelities, finite dilution, catalysis detection with noise
thresholds, robustness bounds, and a metric comparing states by their
non-local content.  Brute-force oracles for cross-checking every closed-form
answer live in ``loccxform.oracle``.
"""

from .applications import (
    CatalysisReport,
    catalysis_check,
    concentration_fidelity,
    dilution_fidelity,
    nonlocal_fidelity,
    nonlocal_trace_distance,
    robustness_interval,
    robustness_of_entanglement,
    teleportation_fidelity,
)
from .faithful import (
    Segment,
    Staircase,
    TransformReport,
    build_staircase,
    optimal_fidelity,
    optimal_state,
)
from .majorization import (
    ConvertibilityVerdict,
    conclusive_probability,
    majorizes,
    weak_submajorizes,
)
from .oracle import (
    GridBudgetError,
    GridSpec,
    ensemble_is_feasible,
    grid_max_fidelity,
    sample_feasible_ensembles,
    sample_unitary_overlap,
)
from .spectra import (
    BipartiteState,
    SchmidtSpectrum,
    aligned_fidelity,
    pad_to_common,
    parse_state_dict,
    schmidt_spectrum,
    tensor,
    trace_distance_from_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "CatalysisReport",
    "ConvertibilityVerdict",
    "GridBudgetError",
    "GridSpec",
    "SchmidtSpectrum",
    "Segment",
    "Staircase",
    "TransformReport",
    "aligned_fidelity",
    "build_staircase",
    "catalysis_check",
    "conclusive_probability",
    "concentration_fidelity",
    "dilution_fidelity",
    "ensemble_is_feasible",
    "grid_max_fidelity",
    "majorizes",
    "nonlocal_fidelity",
    "nonlocal_trace_distance",
    "optimal_fidelity",
    "optimal_state",
    "pad_to_common",
    "parse_state_dict",
    "robustness_interval",
    "robustness_of_entanglement",
    "sample_feasible_ensembles",
    "sample_unitary_overlap",
    "schmidt_spectrum",
    "teleportation_fidelity",
    "tensor",
    "trace_distance_from_fidelity",
    "weak_submajorizes",
]
