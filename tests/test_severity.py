import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hazardrisk import advisory_speed, fhwa_safe_speed, score_severity, speed_profile
from hazardrisk.severity import fallback_safe_speed, textbook_safe_speed


def flat_safe_speed(mu, grade, s):
    # Independent re-evaluation of the safe-speed formula.
    return (-3.67 + math.sqrt(13.47 + 0.12 * s / (mu + grade))) / (0.06 / (mu + grade))


class TestFhwaSafeSpeed:
    def test_dry_500ft(self):
        assert fhwa_safe_speed(0.8, 0, 500) == pytest.approx(76.48, abs=0.01)

    def test_icy_150ft(self):
        assert fhwa_safe_speed(0.1, 0, 150) == pytest.approx(17.07, abs=0.01)

    @pytest.mark.parametrize("mu", [0.05, 0.1, 0.3, 0.5, 0.8, 1.0])
    def test_zero_sight_distance_gives_near_zero_speed(self, mu):
        assert fhwa_safe_speed(mu, 0, 0) == pytest.approx(0.0, abs=0.01)

    def test_matches_flat_evaluation(self):
        for mu in (0.05, 0.1, 0.25, 0.5, 0.8):
            for s in (50, 150, 500, 2000, 6500):
                assert fhwa_safe_speed(mu, 0, s) == pytest.approx(
                    flat_safe_speed(mu, 0, s), rel=1e-12
                )

    def test_grade_contributes(self):
        assert fhwa_safe_speed(0.5, 0.1, 500) == pytest.approx(
            flat_safe_speed(0.6, 0.0, 500), rel=1e-12
        )

    def test_nonpositive_mu_plus_grade_rejected(self):
        with pytest.raises(ValueError):
            fhwa_safe_speed(0.1, -0.1, 100)
        with pytest.raises(ValueError, match=r"^mu \+ grade must be > 0, got -0\.25$"):
            fhwa_safe_speed(0.5, -0.75, 100)

    def test_negative_sight_rejected(self):
        with pytest.raises(ValueError):
            fhwa_safe_speed(0.5, 0, -1)

    @given(
        mu=st.floats(min_value=0.05, max_value=1.0),
        s1=st.floats(min_value=1, max_value=6000),
        delta=st.floats(min_value=1, max_value=500),
    )
    def test_monotone_in_sight_distance(self, mu, s1, delta):
        assert fhwa_safe_speed(mu, 0, s1 + delta) > fhwa_safe_speed(mu, 0, s1)

    @given(
        mu=st.floats(min_value=0.05, max_value=0.9),
        delta=st.floats(min_value=0.01, max_value=0.1),
        s=st.floats(min_value=1, max_value=6562),
    )
    def test_monotone_in_friction(self, mu, delta, s):
        assert fhwa_safe_speed(mu + delta, 0, s) > fhwa_safe_speed(mu, 0, s)


# NaN fails every comparison, so both functions check finiteness first: a NaN
# or infinite input would otherwise give a NaN safe speed, or a NaN reduction
# that min and max turn into 0.0, the safest severity.
@pytest.mark.parametrize("function,args,message", [
    (fhwa_safe_speed, (0.5, 0.0, math.nan), "sight distance must be finite, got nan"),
    (fhwa_safe_speed, (0.5, 0.0, math.inf), "sight distance must be finite, got inf"),
    (fhwa_safe_speed, (math.nan, 0.0, 100.0), "mu + grade must be finite, got nan"),
    (fhwa_safe_speed, (0.5, math.nan, 100.0), "mu + grade must be finite, got nan"),
    (fhwa_safe_speed, (math.inf, 0.0, 100.0), "mu + grade must be finite, got inf"),
    (fhwa_safe_speed, (0.5, -math.inf, 100.0), "mu + grade must be finite, got -inf"),
    (fhwa_safe_speed, (1e308, 1e308, 100.0), "mu + grade must be finite, got inf"),
    (fhwa_safe_speed, (0.5, -0.5, 100.0), "mu + grade must be > 0, got 0.0"),
    (fhwa_safe_speed, (0.5, 0.0, -1e-300), "sight distance must be >= 0, got -1e-300"),
    (advisory_speed, (math.nan, 75.0), "safe speed must be finite, got nan"),
    (advisory_speed, (math.inf, 75.0), "safe speed must be finite, got inf"),
    (advisory_speed, (20.0, math.nan), "design speed must be finite, got nan"),
    (advisory_speed, (20.0, math.inf), "design speed must be finite, got inf"),
    (advisory_speed, (-1e-300, 75.0), "safe speed must be >= 0, got -1e-300"),
    (advisory_speed, (20.0, 0.0), "design speed must be > 0, got 0.0"),
    (speed_profile, (math.nan, 0.0, 100.0, 75.0), "mu + grade must be finite, got nan"),
    (speed_profile, (0.5, 0.0, 100.0, math.nan), "design speed must be finite, got nan"),
])
def test_outside_the_domain_rejected(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)


class TestFallbackSafeSpeed:
    # Friction plus grade down to 1e-150 keeps every intermediate of both
    # forms a normal float; sight is capped where 0.12 * s / mg would overflow.
    @given(
        mg=st.floats(min_value=1e-150, max_value=2.0),
        sight=st.floats(min_value=0.0, max_value=1e308),
    )
    @example(mg=0.05, sight=0.0)
    @example(mg=1e-150, sight=1e150)
    @example(mg=1.0, sight=6562.0)
    def test_within_a_few_ulp_of_textbook_form(self, mg, sight):
        sight = min(sight, mg * 1e307)
        textbook = textbook_safe_speed(mg, sight)
        fallback = fallback_safe_speed(mg, sight)
        assert math.isfinite(textbook) and math.isfinite(fallback)
        # Both forms subtract 3.67 * mg / 0.06 from a square-root term of
        # this size, so each one's rounding error is a few of its ulps.
        scale = math.sqrt(mg * (13.47 * mg + 0.12 * sight)) / 0.06
        assert abs(textbook - fallback) <= 4 * math.ulp(scale)

    @pytest.mark.parametrize("mu,sight", [(5e-324, 100.0), (0.05, 1e308)])
    def test_serves_where_textbook_form_overflows(self, mu, sight):
        assert not math.isfinite(textbook_safe_speed(mu, sight))
        assert fhwa_safe_speed(mu, 0.0, sight) == fallback_safe_speed(mu, sight)


class TestAdvisorySpeed:
    def test_scaling_and_reduction(self):
        profile = advisory_speed(76.48, 75)
        assert profile.v_scaled == pytest.approx(52.15, abs=0.01)
        assert profile.v_advisory == pytest.approx(52.15, abs=0.01)
        assert profile.reduction_pct == pytest.approx(30.5, abs=0.1)

    def test_clamped_to_design_speed(self):
        profile = advisory_speed(220, 75)
        assert profile.v_scaled == 150
        assert profile.v_advisory == 75
        assert profile.reduction_pct == 0

    def test_scale_factor(self):
        assert advisory_speed(22, 75).v_scaled == pytest.approx(15.0)

    def test_nonpositive_design_speed_rejected(self):
        with pytest.raises(ValueError):
            advisory_speed(50, 0)

    @given(
        v=st.floats(min_value=0, max_value=400),
        v_design=st.floats(min_value=1, max_value=100),
    )
    def test_invariants(self, v, v_design):
        profile = advisory_speed(v, v_design)
        assert profile.v_advisory <= profile.v_design
        assert 0 <= profile.reduction_pct <= 100
        assert profile.v_scaled == pytest.approx(15 / 22 * v, abs=1e-9)


class TestScoreSeverity:
    @pytest.mark.parametrize(
        "reduction,score",
        [
            (0.0, 1),
            (6.66, 1),
            (6.67, 2),  # left-closed bins
            (19.99, 2),
            (20.0, 3),
            (30.5, 3),
            (100 / 3, 4),
            (66.0, 4),
            (200 / 3, 5),  # exactly two-thirds scores 5
            (84.5, 5),
            (100.0, 5),
        ],
    )
    def test_bins(self, reduction, score):
        assert score_severity(reduction) == score

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            score_severity(-0.1)
        with pytest.raises(ValueError):
            score_severity(100.1)

    def test_monotone_and_partition(self):
        grid = [i / 100 for i in range(10001)]
        scores = [score_severity(r) for r in grid]
        assert scores == sorted(scores)
        assert set(scores) == {1, 2, 3, 4, 5}

    def test_table_speed_column_consistent_at_design_75(self):
        # Advisory-speed edges of the published bins match their reduction
        # edges when the design speed is 75 mph.
        for advisory, reduction in [(70, 6.67), (60, 20.0), (50, 100 / 3), (25, 200 / 3)]:
            assert 100 * (75 - advisory) / 75 == pytest.approx(reduction, abs=0.01)


class TestSpeedProfilePipeline:
    def test_icy_150ft_extreme(self):
        profile = speed_profile(0.1, 0, 150, 75)
        assert profile.v_advisory == pytest.approx(11.6, abs=0.1)
        assert score_severity(profile.reduction_pct) == 5

    def test_dry_500ft_medium(self):
        profile = speed_profile(0.8, 0, 500, 75)
        assert profile.v_advisory == pytest.approx(52.1, abs=0.1)
        assert score_severity(profile.reduction_pct) == 3
