"""Compound roadway-hazard risk scoring.

Combines crash-probability scores (from friction/visibility crash rates) with
severity scores (from advisory-speed reduction) into a 1-25 composite risk
score, and generates the seeded Monte Carlo case-study dataset over the
catalog's scenario grid (16 with the built-in catalog).
"""

__version__ = "0.1.0"

from .bands import (BandCatalog, Dimension, EnvironmentReading, HazardBand, Scenario, classify,
                    default_catalog, load_catalog, scenario_grid)
from .probability import (JointProbabilityTable, MarginalDistribution, joint_probability,
                          normalize_marginals, score_probability)
from .risk import Assessment, RiskLevel, assess, composite_risk, risk_level, risk_matrix
from .severity import (SpeedProfile, advisory_speed, fhwa_safe_speed, score_severity,
                       speed_profile)


def __getattr__(name):
    """The batch names of __all__, imported on first use (PEP 562): they load
    numpy, which scoring one reading does not need."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import batch, sampler

    return getattr(batch if name == "assess_columns" else sampler, name)


__all__ = [
    "__version__", "Assessment", "BandCatalog", "Dimension", "EnvironmentReading", "HazardBand",
    "JointProbabilityTable", "MarginalDistribution", "RiskLevel", "SampleSet", "SamplerConfig",
    "Scenario", "SpeedProfile", "advisory_speed", "assess", "assess_columns", "classify",
    "composite_risk", "default_catalog", "fhwa_safe_speed", "generate_dataset",
    "joint_probability", "load_catalog", "normalize_marginals", "risk_level", "risk_matrix",
    "scenario_grid", "scenario_samples", "scenario_statistics", "score_probability",
    "score_severity", "speed_profile", "truncated_normal",
]
