"""Composite risk: probability score x severity score, five-tier risk levels,
the 5x5 risk matrix, and end-to-end assessment of a single reading."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bands import BandCatalog, EnvironmentReading
from .probability import JointProbabilityTable
from .severity import _SEVERITY_EDGES, SpeedProfile, score_severity, speed_profile, speed_profiles


class RiskLevel(str, Enum):
    LOW = "Low"
    LOW_MEDIUM = "Low-Medium"
    MEDIUM = "Medium"
    HIGH = "High"
    EXTREME = "Extreme"


# Levels in score order; each spans five composite scores, 1-5 up to 21-25.
_LEVELS = tuple(RiskLevel)
_LEVEL_NAMES = np.array([level.value for level in _LEVELS], dtype=object)


@dataclass(frozen=True)
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
    f, v = catalog.index(reading.mu, reading.sight_distance)
    joint, p_score = joint_table.grid(catalog)[f][v]
    profile = speed_profile(reading.mu, reading.grade, reading.sight_distance, reading.design_speed)
    s_score = score_severity(profile.reduction_pct)
    score = composite_risk(p_score, s_score)
    return Assessment(
        reading=reading,
        friction_label=catalog.friction_bands[f].label,
        visibility_label=catalog.sampling_visibility_bands[v].label,
        joint_probability=joint,
        probability_score=p_score,
        speed_profile=profile,
        severity_score=s_score,
        risk_score=score,
        risk_level=risk_level(score),
    )


def assess_columns(mu, sight_distance, grade, design_speed, catalog: BandCatalog,
                   joint_table: JointProbabilityTable) -> dict[str, np.ndarray]:
    """assess() over arrays of valid readings (see valid_readings); grade and
    design speed may be scalars. Returns a column per Assessment attribute,
    keyed by its dotted path ("speed_profile.v_fhwa", "risk_level.value"),
    each element equal to what assess() gives for that reading."""
    f = np.searchsorted(catalog._friction_cuts, mu, side="right")
    v = np.searchsorted(catalog._visibility_cuts, sight_distance, side="right")
    grid = np.array(joint_table.grid(catalog))
    p_score = grid[f, v, 1].astype(int)
    profile = speed_profiles(mu, grade, sight_distance, design_speed)
    s_score = np.searchsorted(_SEVERITY_EDGES, profile.reduction_pct, side="right") + 1
    score = p_score * s_score
    f_labels, v_labels = (np.array(labels, dtype=object) for labels in catalog._labels)
    return {
        "friction_label": f_labels[f], "visibility_label": v_labels[v],
        "reading.mu": mu, "reading.sight_distance": sight_distance,
        "reading.grade": grade, "reading.design_speed": design_speed,
        "joint_probability": grid[f, v, 0], "probability_score": p_score,
        **{f"speed_profile.{name}": value for name, value in vars(profile).items()},
        "severity_score": s_score, "risk_score": score,
        "risk_level.value": _LEVEL_NAMES[(score - 1) // 5],
    }
