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
from .risk import (Assessment, RiskLevel, assess, assess_columns, composite_risk, risk_level,
                   risk_matrix)
from .sampler import (SamplerConfig, SampleSet, generate_dataset, scenario_statistics,
                      truncated_normal)
from .severity import (SpeedProfile, advisory_speed, fhwa_safe_speed, score_severity,
                       speed_profile)

__all__ = [
    "__version__", "Assessment", "BandCatalog", "Dimension", "EnvironmentReading", "HazardBand",
    "JointProbabilityTable", "MarginalDistribution", "RiskLevel", "SampleSet", "SamplerConfig",
    "Scenario", "SpeedProfile", "advisory_speed", "assess", "assess_columns", "classify",
    "composite_risk", "default_catalog", "fhwa_safe_speed", "generate_dataset",
    "joint_probability", "load_catalog", "normalize_marginals", "risk_level", "risk_matrix",
    "scenario_grid", "scenario_statistics", "score_probability", "score_severity",
    "speed_profile", "truncated_normal",
]
