"""The scoring chain over columns of readings, for simulate and replay. Only
this module and the sampler import numpy: scoring one reading never loads it."""

from __future__ import annotations

import numpy as np

from .bands import BandCatalog
from .probability import JointProbabilityTable
from .risk import _LEVELS
from .severity import (_SEVERITY_EDGES, SPEED_SCALE, SpeedProfile, fallback_safe_speed,
                       textbook_safe_speed)

_LEVEL_NAMES = np.array([level.value for level in _LEVELS], dtype=object)


def valid_readings(mu, sight_distance, grade, design_speed) -> np.ndarray:
    """EnvironmentReading's domain over arrays: True where a reading is valid.
    A rejected row goes through EnvironmentReading for its message."""
    finite = np.isfinite(sight_distance) & np.isfinite(grade) & np.isfinite(design_speed)
    with np.errstate(all="ignore"):
        return finite & (0 < mu) & (mu <= 1) & (sight_distance >= 0) & (mu + grade > 0) & (
            design_speed > 0)


def speed_profiles(mu, grade, sight_distance, v_design) -> SpeedProfile:
    """speed_profile over arrays of valid readings, as a SpeedProfile of
    arrays; each element equals the scalar chain's float bit for bit."""
    mg = mu + grade
    with np.errstate(all="ignore"):  # overflow to inf is part of the chain, as in floats
        v = textbook_safe_speed(mg, sight_distance, np.sqrt)
        v = np.where(np.isfinite(v), v, fallback_safe_speed(mg, sight_distance, np.sqrt))
        v_fhwa = np.maximum(v, 0.0)
        v_scaled = SPEED_SCALE * v_fhwa
        v_advisory = np.minimum(v_design, v_scaled)
        reduction = np.minimum(100.0, np.maximum(0.0, 100.0 * (v_design - v_advisory) / v_design))
    return SpeedProfile(v_fhwa, v_scaled, v_advisory, v_design, reduction)


def assess_columns(mu, sight_distance, grade, design_speed, catalog: BandCatalog,
                   joint_table: JointProbabilityTable) -> dict[str, np.ndarray]:
    """assess() over arrays of valid readings (see valid_readings); grade and
    design speed may be scalars. Returns a column per Assessment attribute,
    keyed by its dotted path ("speed_profile.v_fhwa", "risk_level.value"),
    each element equal to what assess() gives for that reading."""
    f = np.searchsorted(catalog._friction_cuts, mu, side="right")
    v = np.searchsorted(catalog._visibility_cuts, sight_distance, side="right")
    f_labels, v_labels = (np.array([b.label for b in bands], dtype=object)
                          for bands in (catalog.friction_bands, catalog.sampling_visibility_bands))
    # Each scenario's joint entry, indexed [friction band][sensor band].
    entries = [[joint_table.lookup(fl, vl) for vl in v_labels] for fl in f_labels]
    joint = np.array([[e.normalized_joint for e in row] for row in entries])[f, v]
    p_score = np.array([[e.probability_score for e in row] for row in entries])[f, v]
    profile = speed_profiles(mu, grade, sight_distance, design_speed)
    s_score = np.searchsorted(_SEVERITY_EDGES, profile.reduction_pct, side="right") + 1
    score = p_score * s_score
    return {
        "friction_label": f_labels[f], "visibility_label": v_labels[v],
        "reading.mu": mu, "reading.sight_distance": sight_distance,
        "reading.grade": grade, "reading.design_speed": design_speed,
        "joint_probability": joint, "probability_score": p_score,
        **{f"speed_profile.{name}": value for name, value in vars(profile).items()},
        "severity_score": s_score, "risk_score": score,
        "risk_level.value": _LEVEL_NAMES[(score - 1) // 5],
    }
