import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference
from hazardrisk import (
    EnvironmentReading,
    SamplerConfig,
    assess,
    generate_dataset,
    scenario_statistics,
    truncated_normal,
)


class TestTruncatedNormal:
    def test_always_within_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x = truncated_normal(0.8, 0.0333, 0.7, 0.9, rng)
            assert 0.7 <= x <= 0.9

    def test_symmetric_truncation_preserves_mean(self):
        rng = np.random.default_rng(11)
        draws = [truncated_normal(0.8, 0.0333, 0.7, 0.9, rng) for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(0.80, abs=0.005)

    def test_band_peaks_near_midpoints(self):
        # Dry peaks near 0.80, Icy near 0.10.
        rng = np.random.default_rng(3)
        dry = [truncated_normal(0.8, 0.2 / 6, 0.7, 0.9, rng) for _ in range(10_000)]
        icy = [truncated_normal(0.1, 0.1 / 6, 0.05, 0.15, rng) for _ in range(10_000)]
        assert np.mean(dry) == pytest.approx(0.80, rel=0.02)
        assert np.mean(icy) == pytest.approx(0.10, rel=0.02)

    def test_invalid_bounds_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            truncated_normal(0.5, 0.1, 0.9, 0.7, rng)
        with pytest.raises(ValueError):
            truncated_normal(0.5, 0.0, 0.4, 0.6, rng)

    # Windows of N(1, 1) on either side of the 1e-4 acceptance floor:
    # [4.5, 5] holds 2.01e-4 of the mass, [4.6, 4.7] holds 5.13e-5.
    def test_window_just_above_the_acceptance_floor_draws(self):
        draws = truncated_normal(1.0, 1.0, 4.5, 5.0, np.random.default_rng(0), 5)
        assert ((4.5 <= draws) & (draws <= 5.0)).all()

    def test_window_just_below_the_acceptance_floor_errors(self):
        with pytest.raises(RuntimeError, match="5.13e-05 of the mass"):
            truncated_normal(1.0, 1.0, 4.6, 4.7, np.random.default_rng(0))

    def test_empty_interval_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="need lower < upper"):
            truncated_normal(0.5, 0.1, 0.5, 0.5, rng)

    @pytest.mark.parametrize("sigma_rule", [6.0, 0.5, 0.01])
    def test_array_draw_consumes_the_stream_like_single_draws(self, sigma_rule):
        # Wider sigma means more rejections, the last at 0.01 (0.4% accepted).
        sigma = 0.2 / sigma_rule
        one, many = np.random.default_rng(5), np.random.default_rng(5)
        singles = [truncated_normal(0.8, sigma, 0.7, 0.9, one) for _ in range(300)]
        draws = truncated_normal(0.8, sigma, 0.7, 0.9, many, 300)
        assert draws.tolist() == singles
        assert one.bit_generator.state == many.bit_generator.state

    def test_draws_spanning_several_rounds_match_single_draws(self):
        one, many = np.random.default_rng(8), np.random.default_rng(8)
        singles = [truncated_normal(0.8, 0.1, 0.7, 0.9, one) for _ in range(100)]
        assert truncated_normal(0.8, 0.1, 0.7, 0.9, many, 100).tolist() == singles
        assert one.bit_generator.state == many.bit_generator.state

    def test_array_draw_at_the_acceptance_floor_consumes_the_stream_like_single_draws(self):
        # [4.5, 5] holds 2.01e-4 of N(1, 1), just above the floor. A round
        # draws at most 5 normals, so the draw takes thousands of rounds.
        one, many = np.random.default_rng(5), np.random.default_rng(5)
        singles = [truncated_normal(1.0, 1.0, 4.5, 5.0, one) for _ in range(5)]
        assert truncated_normal(1.0, 1.0, 4.5, 5.0, many, 5).tolist() == singles
        assert one.bit_generator.state == many.bit_generator.state

    def test_size_zero_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert truncated_normal(0.8, 0.03, 0.7, 0.9, rng, 0).size == 0
        assert rng.bit_generator.state == state

    def test_negligible_acceptance_mass_errors(self):
        # Window 40 sigma away from the mean: rejection cannot succeed.
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            truncated_normal(0.0, 0.01, 0.4, 0.401, rng)


class TestGenerateDataset:
    def test_default_record_count(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=42), catalog)
        assert len(samples.records) == 1600

    def test_single_sample_per_scenario(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=42, samples_per_scenario=1), catalog)
        assert len(samples.records) == 16

    def test_deterministic(self, catalog):
        a = generate_dataset(SamplerConfig(seed=42), catalog)
        b = generate_dataset(SamplerConfig(seed=42), catalog)
        assert a == b

    def test_seed_changes_dataset(self, catalog):
        a = generate_dataset(SamplerConfig(seed=42), catalog)
        b = generate_dataset(SamplerConfig(seed=43), catalog)
        assert a != b

    def test_all_samples_within_band_bounds(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=42), catalog)
        by_id = {s.scenario_id: s for s in samples.scenarios}
        sampling = {b.label: b for b in catalog.sampling_visibility_bands}
        for record in samples.records:
            scenario = by_id[record.scenario_id]
            fband = scenario.friction_band
            vband = sampling[scenario.visibility_band.label]
            assert fband.lower <= record.mu <= fband.upper
            assert vband.lower <= record.sight_ft <= vband.upper

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(samples_per_scenario=0)
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            SamplerConfig(seed=-1)
        # Too small to sample (band edges inside +-0.005 sigma) or non-finite.
        for sigma_rule in (0, 1e-9, 0.0099, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="sigma_rule"):
                SamplerConfig(sigma_rule=sigma_rule)

    def test_smallest_sigma_rule_accepted(self):
        assert SamplerConfig(sigma_rule=0.01).sigma_rule == 0.01

    def test_seed_zero_accepted(self):
        assert SamplerConfig(seed=0).seed == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), n=st.integers(min_value=1, max_value=50))
def test_dataset_matches_reference_sampler_bit_for_bit(catalog, seed, n):
    samples = generate_dataset(SamplerConfig(seed=seed, samples_per_scenario=n), catalog)
    ids, mus, sights = reference.sample(seed, n)
    assert [r.scenario_id for r in samples.records] == ids.tolist()
    assert np.array([r.mu for r in samples.records]).tobytes() == mus.tobytes()
    assert np.array([r.sight_ft for r in samples.records]).tobytes() == sights.tobytes()


def _assessed_scores(samples, catalog, joint_table):
    return [
        assess(
            EnvironmentReading(mu=r.mu, sight_distance=r.sight_ft), catalog, joint_table
        ).risk_score
        for r in samples.records
    ]


@pytest.fixture(scope="module")
def stats(catalog, joint_table):
    samples = generate_dataset(SamplerConfig(seed=42), catalog)
    return scenario_statistics(samples, _assessed_scores(samples, catalog, joint_table))


class TestScenarioStatistics:
    def _by_labels(self, stats, f, v):
        return next(
            s
            for s in stats
            if s.scenario.friction_band.label == f and s.scenario.visibility_band.label == v
        )

    def test_icy_very_dense_fog_pegged_at_max(self, stats):
        s = self._by_labels(stats, "Icy", "Very Dense Fog")
        assert s.mean == 25.0
        assert s.std == 0.0

    def test_dry_clear_pegged_at_floor(self, stats):
        s = self._by_labels(stats, "Dry", "Clear")
        assert s.mean == 1.0
        assert s.std == 0.0

    def test_dry_dense_fog_mean(self, stats):
        s = self._by_labels(stats, "Dry", "Dense Fog")
        assert s.mean == pytest.approx(5.6, abs=1.0)

    def test_sorted_ascending_by_mean(self, stats):
        means = [s.mean for s in stats]
        assert means == sorted(means)

    def test_three_sigma_bounds_clamped(self, stats):
        for s in stats:
            assert 1.0 <= s.lower_3sigma <= s.mean
            assert s.mean <= s.upper_3sigma <= 25.0
            assert 1 <= s.min <= s.max <= 25

    def test_scores_are_read_in_scenario_blocks(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=1, samples_per_scenario=3), catalog)
        # Scenario k's three samples all score k.
        scores = np.repeat(np.arange(1, 17), 3)
        stats = scenario_statistics(samples, scores)
        assert [(s.scenario.scenario_id, s.mean, s.std) for s in stats] == [
            (k, float(k), 0.0) for k in range(1, 17)
        ]

    def test_mismatched_score_count_rejected(self, catalog):
        samples = generate_dataset(SamplerConfig(seed=1, samples_per_scenario=2), catalog)
        with pytest.raises(ValueError):
            scenario_statistics(samples, [1, 2, 3])
