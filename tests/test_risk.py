import math
from dataclasses import astuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hazardrisk import (
    EnvironmentReading,
    RiskLevel,
    assess,
    composite_risk,
    risk_level,
    risk_matrix,
)


class TestCompositeRisk:
    def test_floor(self):
        assert composite_risk(1, 1) == 1

    def test_dry_very_dense_fog_product(self):
        assert composite_risk(4, 5) == 20

    def test_ceiling(self):
        assert composite_risk(5, 5) == 25

    @pytest.mark.parametrize("pair", [(0, 3), (3, 6), (-1, 1), (3, 0)])
    def test_out_of_range_rejected(self, pair):
        with pytest.raises(ValueError):
            composite_risk(*pair)


class TestRiskLevel:
    @pytest.mark.parametrize(
        "score,level",
        [
            (1, RiskLevel.LOW),
            (3, RiskLevel.LOW),
            (5, RiskLevel.LOW),
            (6, RiskLevel.LOW_MEDIUM),
            (10, RiskLevel.LOW_MEDIUM),
            (12, RiskLevel.MEDIUM),
            (15, RiskLevel.MEDIUM),
            (16, RiskLevel.HIGH),
            (20, RiskLevel.HIGH),
            (21, RiskLevel.EXTREME),
            (25, RiskLevel.EXTREME),
        ],
    )
    def test_bands(self, score, level):
        assert risk_level(score) == level

    def test_partition_covers_1_to_25(self):
        levels = [risk_level(s) for s in range(1, 26)]
        assert len(levels) == 25
        # Band order is monotone in score.
        ordered = [RiskLevel.LOW, RiskLevel.LOW_MEDIUM, RiskLevel.MEDIUM, RiskLevel.HIGH, RiskLevel.EXTREME]
        indices = [ordered.index(lv) for lv in levels]
        assert indices == sorted(indices)

    @pytest.mark.parametrize("score", [0, 26, -3])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ValueError):
            risk_level(score)


class TestRiskMatrix:
    def test_corners(self):
        matrix = risk_matrix()
        assert matrix[0][0] == (1, RiskLevel.LOW)
        assert matrix[4][4] == (25, RiskLevel.EXTREME)
        assert matrix[2][3] == (12, RiskLevel.MEDIUM)  # severity 3, probability 4

    def test_all_cells_consistent(self):
        matrix = risk_matrix()
        for s in range(5):
            for p in range(5):
                score, level = matrix[s][p]
                assert score == (p + 1) * (s + 1)
                assert level == risk_level(score)

    def test_monotone_along_rows_and_columns(self):
        matrix = risk_matrix()
        for s in range(5):
            row = [matrix[s][p][0] for p in range(5)]
            assert row == sorted(row)
        for p in range(5):
            col = [matrix[s][p][0] for s in range(5)]
            assert col == sorted(col)


def flat_pipeline(mu, sight, grade=0.0, v_design=75.0):
    """Independent flat recomputation of the whole scoring chain."""
    friction = [("Icy", 0.05, 0.15, 9.0), ("Snow", 0.2, 0.3, 5.5),
                ("Wet", 0.4, 0.6, 3.75), ("Dry", 0.7, 0.9, 1.9)]
    visibility = [("Very Dense Fog", 33, 164, 18.7), ("Dense Fog", 164, 1000, 4.95),
                  ("Rain/Snow", 1000, 4000, 1.85), ("Clear", 4000, 6500, 0.685)]

    def pick(value, bands):
        cuts = [(a[2] + b[1]) / 2 for a, b in zip(bands, bands[1:])]
        idx = sum(1 for c in cuts if value >= c)
        return bands[idx][0]

    f_label = pick(mu, friction)
    v_label = pick(sight, visibility)
    pf = {b[0]: b[3] / sum(x[3] for x in friction) for b in friction}
    pv = {b[0]: b[3] / sum(x[3] for x in visibility) for b in visibility}
    joint = pf[f_label] * pv[v_label]
    p_score = 1 if joint <= 0.01 else 2 if joint <= 0.02 else 3 if joint <= 0.05 else 4 if joint <= 0.1 else 5
    v = (-3.67 + math.sqrt(13.47 + 0.12 * sight / (mu + grade))) / (0.06 / (mu + grade))
    va = min(v_design, 15 / 22 * v)
    red = 100 * (v_design - va) / v_design
    s_score = 1 if red < 6.67 else 2 if red < 20 else 3 if red < 100 / 3 else 4 if red < 200 / 3 else 5
    return p_score, s_score, p_score * s_score


class TestAssess:
    def test_icy_dense_fog_extreme(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.1, sight_distance=150), catalog, joint_table)
        assert result.probability_score == 5
        assert result.severity_score == 5
        assert result.risk_score == 25
        assert result.risk_level == RiskLevel.EXTREME

    def test_dry_clear_floor(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.8, sight_distance=5000), catalog, joint_table)
        assert result.probability_score == 1
        assert result.severity_score == 1
        assert result.risk_score == 1
        assert result.risk_level == RiskLevel.LOW

    def test_dry_very_dense_fog_high(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.8, sight_distance=150), catalog, joint_table)
        assert result.probability_score == 4
        assert result.severity_score == 5
        assert result.risk_score == 20
        assert result.risk_level == RiskLevel.HIGH

    def test_risk_is_product(self, catalog, joint_table):
        result = assess(EnvironmentReading(mu=0.25, sight_distance=582), catalog, joint_table)
        assert result.risk_score == result.probability_score * result.severity_score
        assert result.risk_score == 16

    def test_matches_flat_pipeline_at_band_midpoints(self, catalog, joint_table):
        f_mids = [(b.lower + b.upper) / 2 for b in catalog.friction_bands]
        v_mids = [(b.lower + b.upper) / 2 for b in catalog.sampling_visibility_bands]
        for mu in f_mids:
            for sight in v_mids:
                result = assess(
                    EnvironmentReading(mu=mu, sight_distance=sight), catalog, joint_table
                )
                p_score, s_score, score = flat_pipeline(mu, sight)
                assert (result.probability_score, result.severity_score, result.risk_score) == (
                    p_score,
                    s_score,
                    score,
                ), (mu, sight)



# Readings inside EnvironmentReading's domain: mu in (0, 1], sight >= 0,
# mu + grade > 0, design speed > 0, all finite.
reading_fields = st.fixed_dictionaries(
    {
        "mu": st.floats(min_value=0, max_value=1, exclude_min=True),
        "sight_distance": st.floats(min_value=0, max_value=1e308),
        "grade": st.floats(min_value=-1, max_value=1),
        "design_speed": st.floats(min_value=0, max_value=200, exclude_min=True),
    }
).filter(lambda f: f["mu"] + f["grade"] > 0)


class TestAssessProperties:
    @given(fields=reading_fields)
    # 0.12 * sight / mu overflows in the textbook form of the safe speed.
    @example(fields={"mu": 5e-324, "sight_distance": 100.0, "grade": 0.0, "design_speed": 75.0})
    @example(fields={"mu": 0.05, "sight_distance": 1e308, "grade": 0.0, "design_speed": 75.0})
    def test_risk_is_product_and_level_of_score(self, catalog, joint_table, fields):
        result = assess(EnvironmentReading(**fields), catalog, joint_table)
        assert result.risk_score == result.probability_score * result.severity_score
        assert result.risk_level == risk_level(result.risk_score)
        assert all(map(math.isfinite, astuple(result.speed_profile)))

    @given(
        fields=reading_fields,
        field=st.sampled_from(["sight_distance", "grade", "design_speed"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_nonfinite_field_rejected(self, fields, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EnvironmentReading(**{**fields, field: value})
