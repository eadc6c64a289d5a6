"""Severity: safe advisory speed from friction, sight distance, grade, and
design speed, and ordinal scoring of the required percent speed reduction."""

from __future__ import annotations

import math
from bisect import bisect_right

from .bands import Record

# Lower edges of severity scores 2-5 on percent speed reduction; bins are
# left-closed.
_SEVERITY_EDGES = (6.67, 20.0, 100.0 / 3.0, 200.0 / 3.0)

# Nebraska-DOT scaling of the raw safe speed.
SPEED_SCALE = 15.0 / 22.0


class SpeedProfile(Record):
    """The advisory-speed chain: raw safe speed, scaled speed, final advisory
    capped at design speed, and percent reduction from design speed; floats
    for one reading, arrays for many (see batch.speed_profiles)."""

    v_fhwa: float
    v_scaled: float
    v_advisory: float
    v_design: float
    reduction_pct: float

    def __init__(self, v_fhwa: float, v_scaled: float, v_advisory: float, v_design: float,
                 reduction_pct: float):
        fields = self.__dict__
        fields["v_fhwa"] = v_fhwa
        fields["v_scaled"] = v_scaled
        fields["v_advisory"] = v_advisory
        fields["v_design"] = v_design
        fields["reduction_pct"] = reduction_pct


def fhwa_safe_speed(mu: float, grade: float, sight_distance: float) -> float:
    """Safe speed (mph) for the available sight distance on a surface with the
    given friction coefficient and decimal grade."""
    mg = mu + grade
    # Finite first, as in EnvironmentReading: NaN fails no comparison below.
    if not math.isfinite(mg):
        raise ValueError(f"mu + grade must be finite, got {mg}")
    if not math.isfinite(sight_distance):
        raise ValueError(f"sight distance must be finite, got {sight_distance}")
    if mg <= 0:
        raise ValueError(f"mu + grade must be > 0, got {mg}")
    if sight_distance < 0:
        raise ValueError(f"sight distance must be >= 0, got {sight_distance}")
    v = textbook_safe_speed(mg, sight_distance)
    if not math.isfinite(v):
        v = fallback_safe_speed(mg, sight_distance)
    return max(v, 0.0)


# Both forms of the safe speed at friction plus grade mg take the square root
# as a parameter, so the scalar (math.sqrt) and array (np.sqrt) chains share
# each expression. The textbook form overflows where 0.12 * s / mg does (a
# subnormal mg or a huge s); the fallback, algebraically equal, stays finite
# there but can differ by an ulp elsewhere, so it serves only there.
def textbook_safe_speed(mg, sight_distance, sqrt=math.sqrt):
    return (-3.67 + sqrt(13.47 + 0.12 * sight_distance / mg)) / (0.06 / mg)


def fallback_safe_speed(mg, sight_distance, sqrt=math.sqrt):
    return (sqrt(mg * (13.47 * mg + 0.12 * sight_distance)) - 3.67 * mg) / 0.06


def advisory_speed(v_fhwa: float, v_design: float) -> SpeedProfile:
    """Scale the raw safe speed and cap at design speed; the advisory never
    exceeds what the road design or current conditions allow."""
    if not math.isfinite(v_fhwa):
        raise ValueError(f"safe speed must be finite, got {v_fhwa}")
    if not math.isfinite(v_design):
        raise ValueError(f"design speed must be finite, got {v_design}")
    if v_fhwa < 0:
        raise ValueError(f"safe speed must be >= 0, got {v_fhwa}")
    if v_design <= 0:
        raise ValueError(f"design speed must be > 0, got {v_design}")
    v_scaled = SPEED_SCALE * v_fhwa
    v_advisory = min(v_design, v_scaled)
    # Clamp: the division can overshoot 100 by one ulp when v_advisory is 0.
    reduction_pct = min(100.0, max(0.0, 100.0 * (v_design - v_advisory) / v_design))
    return SpeedProfile(v_fhwa, v_scaled, v_advisory, v_design, reduction_pct)


def score_severity(reduction_pct: float) -> int:
    """Ordinal 1-5 severity score of a percent speed reduction."""
    if not 0 <= reduction_pct <= 100:
        raise ValueError(f"reduction percent must be in [0, 100], got {reduction_pct}")
    return bisect_right(_SEVERITY_EDGES, reduction_pct) + 1


def speed_profile(mu: float, grade: float, sight_distance: float, v_design: float) -> SpeedProfile:
    """Full advisory-speed chain for one reading."""
    return advisory_speed(fhwa_safe_speed(mu, grade, sight_distance), v_design)
