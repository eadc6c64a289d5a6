"""Composite risk: probability score x severity score, five-tier risk levels,
the 5x5 risk matrix, and end-to-end assessment of a single reading."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bands import BandCatalog, EnvironmentReading, classify
from .probability import JointProbabilityTable
from .severity import SpeedProfile, score_severity, speed_profile


class RiskLevel(str, Enum):
    LOW = "Low"
    LOW_MEDIUM = "Low-Medium"
    MEDIUM = "Medium"
    HIGH = "High"
    EXTREME = "Extreme"


# Levels in score order; each spans five composite scores, 1-5 up to 21-25.
_LEVELS = tuple(RiskLevel)


@dataclass(frozen=True, init=False)
class Assessment:
    """Full scored record for one environment reading."""

    reading: EnvironmentReading
    friction_label: str
    visibility_label: str
    joint_probability: float
    probability_score: int
    speed_profile: SpeedProfile
    severity_score: int
    risk_score: int
    risk_level: RiskLevel

    # One __dict__ update, not a frozen dataclass's setattr per field (see
    # bands.EnvironmentReading).
    def __init__(self, reading: EnvironmentReading, friction_label: str, visibility_label: str,
                 joint_probability: float, probability_score: int, speed_profile: SpeedProfile,
                 severity_score: int, risk_score: int, risk_level: RiskLevel):
        vars(self).update(reading=reading, friction_label=friction_label,
                          visibility_label=visibility_label, joint_probability=joint_probability,
                          probability_score=probability_score, speed_profile=speed_profile,
                          severity_score=severity_score, risk_score=risk_score,
                          risk_level=risk_level)


def _check_score(score: int, name: str) -> None:
    if not (isinstance(score, int) and 1 <= score <= 5):
        raise ValueError(f"{name} must be an integer in 1..5, got {score!r}")


def composite_risk(p_score: int, s_score: int) -> int:
    """Composite risk score: probability score times severity score."""
    _check_score(p_score, "probability score")
    _check_score(s_score, "severity score")
    return p_score * s_score


def risk_level(score: int) -> RiskLevel:
    """Five-tier risk level of a composite score in 1..25."""
    if not (isinstance(score, int) and 1 <= score <= 25):
        raise ValueError(f"risk score must be an integer in 1..25, got {score!r}")
    return _LEVELS[(score - 1) // 5]


def risk_matrix() -> list[list[tuple[int, RiskLevel]]]:
    """5x5 grid of (score, level); rows are severity 1..5, columns are
    probability 1..5."""
    return [
        [(composite_risk(p, s), risk_level(composite_risk(p, s))) for p in range(1, 6)]
        for s in range(1, 6)
    ]


def assess(
    reading: EnvironmentReading,
    catalog: BandCatalog,
    joint_table: JointProbabilityTable,
) -> Assessment:
    """Classify a reading, look up its scenario's probability score, compute
    the advisory-speed severity, and compose the risk score and level."""
    fband, vband = classify(reading, catalog)
    entry = joint_table.lookup(fband.label, vband.label)
    profile = speed_profile(reading.mu, reading.grade, reading.sight_distance, reading.design_speed)
    s_score = score_severity(profile.reduction_pct)
    score = composite_risk(entry.probability_score, s_score)
    return Assessment(reading, fband.label, vband.label, entry.normalized_joint,
                      entry.probability_score, profile, s_score, score, risk_level(score))
