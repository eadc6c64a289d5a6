"""Composite risk: probability score x severity score, five-tier risk levels,
the 5x5 risk matrix, and end-to-end assessment of a single reading."""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from math import inf

from .bands import BandCatalog, EnvironmentReading, Record
from .probability import JointProbabilityTable, check_score
from .severity import (_SEVERITY_EDGES, SPEED_SCALE, SpeedProfile, fallback_safe_speed,
                       textbook_safe_speed)


class RiskLevel(str, Enum):
    LOW = "Low"
    LOW_MEDIUM = "Low-Medium"
    MEDIUM = "Medium"
    HIGH = "High"
    EXTREME = "Extreme"


# Levels in score order; each spans five composite scores, 1-5 up to 21-25.
_LEVELS = tuple(RiskLevel)


class Assessment(Record):
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

    def __init__(self, reading: EnvironmentReading, friction_label: str, visibility_label: str,
                 joint_probability: float, probability_score: int, speed_profile: SpeedProfile,
                 severity_score: int, risk_score: int, risk_level: RiskLevel):
        fields = self.__dict__
        fields["reading"] = reading
        fields["friction_label"] = friction_label
        fields["visibility_label"] = visibility_label
        fields["joint_probability"] = joint_probability
        fields["probability_score"] = probability_score
        fields["speed_profile"] = speed_profile
        fields["severity_score"] = severity_score
        fields["risk_score"] = risk_score
        fields["risk_level"] = risk_level


def composite_risk(p_score: int, s_score: int) -> int:
    """Composite risk score: probability score times severity score."""
    check_score(p_score, "probability score")
    check_score(s_score, "severity score")
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
    the advisory-speed severity, and compose the risk score and level.

    The chain of classify, lookup, speed_profile, score_severity,
    composite_risk and risk_level, written out in one frame without their
    checks: the reading passed EnvironmentReading's and the entry JointEntry's,
    and no later check can fail after those (tests/test_risk.py holds it to
    the checked chain). Only the safe-speed formula shared with
    batch.speed_profiles runs in a frame of its own."""
    mu, sight, v_design = reading.mu, reading.sight_distance, reading.design_speed
    friction_label = catalog.friction_bands[bisect_right(catalog._friction_cuts, mu)].label
    visibility_label = catalog.sampling_visibility_bands[
        bisect_right(catalog._visibility_cuts, sight)].label
    entry = joint_table._by_labels[friction_label, visibility_label]
    mg = mu + reading.grade
    v = textbook_safe_speed(mg, sight)
    # math.isfinite, max and min written as comparisons, each giving the same
    # float for every input, NaN and signed zeros included: min(a, b) is
    # `b if b < a else a` and max(a, b) is `b if b > a else a`.
    if not -inf < v < inf:
        v = fallback_safe_speed(mg, sight)
    v_fhwa = 0.0 if 0.0 > v else v
    v_scaled = SPEED_SCALE * v_fhwa
    v_advisory = v_scaled if v_scaled < v_design else v_design
    # Clamp to [0, 100], as severity.advisory_speed does.
    reduction_pct = 100.0 * (v_design - v_advisory) / v_design
    reduction_pct = reduction_pct if reduction_pct > 0.0 else 0.0
    reduction_pct = reduction_pct if reduction_pct < 100.0 else 100.0
    # The two records filled as their __init__ would, without its frame.
    profile = object.__new__(SpeedProfile)
    fields = profile.__dict__
    fields["v_fhwa"] = v_fhwa
    fields["v_scaled"] = v_scaled
    fields["v_advisory"] = v_advisory
    fields["v_design"] = v_design
    fields["reduction_pct"] = reduction_pct
    s_score = bisect_right(_SEVERITY_EDGES, reduction_pct) + 1
    p_score = entry.probability_score
    score = p_score * s_score
    result = object.__new__(Assessment)
    fields = result.__dict__
    fields["reading"] = reading
    fields["friction_label"] = friction_label
    fields["visibility_label"] = visibility_label
    fields["joint_probability"] = entry.normalized_joint
    fields["probability_score"] = p_score
    fields["speed_profile"] = profile
    fields["severity_score"] = s_score
    fields["risk_score"] = score
    fields["risk_level"] = _LEVELS[(score - 1) // 5]
    return result
