"""Analysis tooling: deviations, empirical robustness, implementation checks."""

from repro.analysis import deviations
from repro.analysis.implementation import (
    ImplementationReport,
    check_implementation,
    implementation_distance,
)
from repro.analysis.robustness import (
    DeviationTrial,
    EmpiricalRobustnessReport,
    average_utilities,
    check_empirical_robustness,
    scheduler_proofness_spread,
)
from repro.games.outcomes import empirical_map

__all__ = [
    "deviations",
    "ImplementationReport",
    "check_implementation",
    "empirical_map",
    "implementation_distance",
    "DeviationTrial",
    "EmpiricalRobustnessReport",
    "average_utilities",
    "check_empirical_robustness",
    "scheduler_proofness_spread",
]
